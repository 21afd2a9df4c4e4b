//go:build !race

package inputs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logs"
)

// nopEngine accepts every batch and keeps nothing, so a connection's
// allocations are the reader chain's alone.
type nopEngine struct{}

func (nopEngine) IngestBatch([]logs.ProxyRecord) error { return nil }
func (nopEngine) Lagging() bool                        { return false }

// TestHandleConnAllocs pins what the reader chain allocates per record: the
// URL and Referer strings when they differ from the previous record's, and
// nothing else — frames are decoded in place into the pooled batch, the
// bounded columns come out of the warm intern table. What a connection
// allocates once (scanner, 64 KiB buffer, decoder handles) is the fixed
// slack. Behind !race because sync.Pool drops Puts at random under the race
// detector, which turns the pooled decoder and batch into fresh allocations.
func TestHandleConnAllocs(t *testing.T) {
	const n, perConn = 2000, 32
	wire := func(unique bool) []byte {
		recs := make([]logs.ProxyRecord, n)
		for i := range recs {
			recs[i] = testProxyRecord(i)
			recs[i].Referer = "http://site-0.example.org/"
			if unique {
				recs[i].URL = fmt.Sprintf("/page/%d", i)
				recs[i].Referer = fmt.Sprintf("http://site-0.example.org/from/%d", i)
			}
		}
		return frameProxy(FramingNewline, recs)
	}
	l := NewListener(nopEngine{}, Config{Name: "t"})
	for _, tc := range []struct {
		name string
		wire []byte
		max  float64
	}{
		{"every URL and Referer new", wire(true), 2*n + perConn},
		{"URL and Referer repeat", wire(false), perConn},
	} {
		run := func() {
			if err := l.HandleConn(&readerConn{r: bytes.NewReader(tc.wire)}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled decoder's intern table and the batch buffer
		if got := testing.AllocsPerRun(5, run); got > tc.max {
			t.Errorf("%s: %.0f allocations for %d records, want <= %.0f", tc.name, got, n, tc.max)
		} else {
			t.Logf("%s: %.0f allocations for %d records", tc.name, got, n)
		}
	}
}
