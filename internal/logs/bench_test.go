package logs_test

import (
	"bytes"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/logs"
)

// benchInputs are the two traffic shapes the decode benchmarks run on, so a
// result is never read off the flattering one alone:
//
//   - constant: 4,096 records over a bounded working set (64 hosts, 61
//     domains, 3 user agents) that all carry ONE URL and ONE Referer — the
//     best case of any memo, and no real proxy log's shape;
//   - enterprise: the first operation day of the small enterprise generator,
//     the truth stream of every bench/ workload — per-record URLs, referers
//     shared only inside one host's page-load burst, hosts interleaved.
//
// The shapes are measured back, not assumed: every BenchmarkParseProxy line
// reports its input's distinct hosts / domains / UAs / URLs and the share of
// records whose URL equals the previous record's.
func benchInputs() []benchInput {
	return []benchInput{
		{"constant", logs.SampleProxyRecords(4096)},
		{"enterprise", gen.NewEnterprise(eval.EnterpriseScale(eval.ScaleSmall, 21)).Day(13)},
	}
}

type benchInput struct {
	name string
	recs []logs.ProxyRecord
}

// reportShape attaches the input's measured cardinalities to the result line.
func reportShape(b *testing.B, recs []logs.ProxyRecord) {
	hosts, domains, uas, urls := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	repeats := 0
	for i, r := range recs {
		// A record names its source by Host or, lease-resolved, by SrcIP alone.
		hosts[r.Host+"|"+r.SrcIP.String()], domains[r.Domain], uas[r.UserAgent], urls[r.URL] = true, true, true, true
		if i > 0 && r.URL == recs[i-1].URL {
			repeats++
		}
	}
	b.ReportMetric(float64(len(hosts)), "hosts")
	b.ReportMetric(float64(len(domains)), "domains")
	b.ReportMetric(float64(len(uas)), "UAs")
	b.ReportMetric(float64(len(urls)), "URLs")
	b.ReportMetric(float64(repeats)/float64(len(recs)), "url-repeat-frac")
}

// BenchmarkParseProxy prices the zero-copy batch decode: warm decoder,
// pre-sized caller-owned buffer, the configuration every wired consumer
// (HTTP ingest, replay, batch loader) runs.
func BenchmarkParseProxy(b *testing.B) {
	for _, in := range benchInputs() {
		b.Run(in.name, func(b *testing.B) {
			n := len(in.recs)
			data := logs.EncodeProxyTSV(in.recs)
			b.SetBytes(int64(len(data)))
			d := logs.NewProxyDecoder()
			recs := make([]logs.ProxyRecord, 0, n)
			rd := bytes.NewReader(data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(data)
				var err error
				recs, err = logs.ReadProxyBatch(rd, d, recs[:0])
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != n {
					b.Fatalf("decoded %d records, want %d", len(recs), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/rec")
			reportShape(b, in.recs)
		})
	}
}

// BenchmarkEncodeProxy prices the append-based encoder that replaced the
// fmt.Fprintf write path.
func BenchmarkEncodeProxy(b *testing.B) {
	const n = 4096
	recs := logs.SampleProxyRecords(n)
	dst := logs.EncodeProxyTSV(recs)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, r := range recs {
			dst = logs.AppendProxy(dst, r)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rec/s")
}
