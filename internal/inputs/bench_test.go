package inputs

import (
	"bytes"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/logs"
)

// nopEngine accepts every batch and keeps nothing, so a connection's cost and
// allocations are the reader chain's alone.
type nopEngine struct{}

func (nopEngine) IngestBatch([]logs.ProxyRecord) error { return nil }
func (nopEngine) Lagging() bool                        { return false }

// BenchmarkHandleConn prices one newline-framed TCP connection's reader chain
// — frame, decode, hand off — against an engine that does nothing: the
// in-repo counterpart of the benchmark's inputs.handle_ns_per_rec row. It runs
// on the same two shapes as internal/logs' BenchmarkParseProxy (which reports
// their measured cardinalities): records that all share one URL, and the small
// enterprise generator's first operation day.
func BenchmarkHandleConn(b *testing.B) {
	constant := make([]logs.ProxyRecord, 4096)
	for i := range constant {
		constant[i] = testProxyRecord(i)
	}
	for _, in := range []struct {
		name string
		recs []logs.ProxyRecord
	}{
		{"constant", constant},
		{"enterprise", gen.NewEnterprise(eval.EnterpriseScale(eval.ScaleSmall, 21)).Day(13)},
	} {
		b.Run(in.name, func(b *testing.B) {
			wire := frameProxy(FramingNewline, in.recs)
			b.SetBytes(int64(len(wire)))
			l := NewListener(nopEngine{}, Config{Name: "bench", Framing: FramingNewline, Format: FormatProxy})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.HandleConn(&readerConn{r: bytes.NewReader(wire)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(in.recs)*b.N), "ns/rec")
		})
	}
}
