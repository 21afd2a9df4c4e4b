//go:build !race

package inputs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logs"
)

// TestHandleConnAllocs pins what the reader chain allocates per record: the
// URL and Referer strings, and nothing else — frames are decoded in place into
// the pooled batch, the bounded columns come out of the warm intern table.
// What a connection allocates once (scanner, 64 KiB buffer, decoder handles)
// is the fixed slack. Behind !race because sync.Pool drops Puts at random
// under the race detector, which turns the pooled decoder and batch into
// fresh allocations.
func TestHandleConnAllocs(t *testing.T) {
	const n, perConn = 2000, 32
	recs := make([]logs.ProxyRecord, n)
	for i := range recs {
		recs[i] = testProxyRecord(i)
		recs[i].URL = fmt.Sprintf("/page/%d", i)
		recs[i].Referer = fmt.Sprintf("http://site-0.example.org/from/%d", i)
	}
	wire := frameProxy(FramingNewline, recs)
	l := NewListener(nopEngine{}, Config{Name: "t"})
	run := func() {
		if err := l.HandleConn(&readerConn{r: bytes.NewReader(wire)}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pooled decoder's intern table and the batch buffer
	if got := testing.AllocsPerRun(5, run); got < 2*n || got > 2*n+perConn {
		t.Errorf("%.0f allocations for %d records, want %d (URL + Referer each) plus at most %d per connection", got, n, 2*n, perConn)
	}
}
