package logs

import (
	"bytes"
	"testing"
)

// benchProxyData builds one encoded day fragment with realistic value
// cardinality (64 hosts, 61 domains, 3 user agents, repeated URLs) so the
// interning and caching layers see the workload they were designed for.
func benchProxyData(b *testing.B, n int) []byte {
	b.Helper()
	data := encodeProxyTSV(sampleProxyRecords(n))
	b.SetBytes(int64(len(data)))
	return data
}

// BenchmarkParseProxy prices the zero-copy batch decode: warm decoder,
// pre-sized caller-owned buffer, the configuration every wired consumer
// (HTTP ingest, replay, batch loader) runs.
func BenchmarkParseProxy(b *testing.B) {
	const n = 4096
	data := benchProxyData(b, n)
	d := NewProxyDecoder()
	recs := make([]ProxyRecord, 0, n)
	rd := bytes.NewReader(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		var err error
		recs, err = ReadProxyBatch(rd, d, recs[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != n {
			b.Fatalf("decoded %d records, want %d", len(recs), n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkEncodeProxy prices the append-based encoder that replaced the
// fmt.Fprintf write path.
func BenchmarkEncodeProxy(b *testing.B) {
	const n = 4096
	recs := sampleProxyRecords(n)
	dst := encodeProxyTSV(recs)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, r := range recs {
			dst = AppendProxy(dst, r)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rec/s")
}
