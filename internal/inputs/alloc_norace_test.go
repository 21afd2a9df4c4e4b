//go:build !race

package inputs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logs"
)

// TestHandleConnAllocs pins what the reader chain allocates: nothing per
// record — frames are decoded in place into the pooled batch, the bounded
// columns come out of the warm intern table, addresses out of the address
// front, Domain, URL and Referer are carved from the decoder's text block —
// plus one allocation per 32 KiB text block the connection fills. On top of
// that, a connection allocates perConn objects once (the counting reader,
// the scanner, the decoder handle, the routing wait group, and this test's
// reader and conn; the 64 KiB read buffer is pooled) and one routed callback
// per batch. A GC cycle inside the five measured runs makes every pool the
// connection touches allocate its per-P array again, gcSlack averaged over
// the runs. Behind !race because sync.Pool drops Puts at random under the
// race detector, which turns the pooled decoder, batch and read buffer into
// fresh allocations.
func TestHandleConnAllocs(t *testing.T) {
	const n, perConn, gcSlack = 2000, 6, 3
	const batches = (n + DefaultBatchRecords - 1) / DefaultBatchRecords
	const textBlock = 32 << 10 // the decoder's text block size
	recs := make([]logs.ProxyRecord, n)
	text, longest := 0, 0
	for i := range recs {
		recs[i] = testProxyRecord(i)
		recs[i].Domain = fmt.Sprintf("d%d.example.org", i) // a fresh name per record, as churn traffic brings
		recs[i].URL = fmt.Sprintf("/page/%d", i)
		recs[i].Referer = fmt.Sprintf("http://site-0.example.org/from/%d", i)
		text += len(recs[i].Domain) + len(recs[i].URL) + len(recs[i].Referer)
		longest = max(longest, len(recs[i].Domain), len(recs[i].URL), len(recs[i].Referer))
	}
	// A connection starts a block whenever the next value does not fit: at
	// least every textBlock bytes, at most every textBlock-longest, plus one
	// for the block it found nearly full.
	minBlocks, maxBlocks := text/textBlock, text/(textBlock-longest)+1
	wire := frameProxy(FramingNewline, recs)
	l := NewListener(nopEngine{}, Config{Name: "t"})
	run := func() {
		if err := l.HandleConn(&readerConn{r: bytes.NewReader(wire)}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pooled decoder's intern table, the batch and the read buffer
	if got := testing.AllocsPerRun(5, run); got < float64(minBlocks) || got > float64(maxBlocks+perConn+batches+gcSlack) {
		t.Errorf("%.0f allocations for %d records (%d bytes of Domain, URL and Referer), want %d..%d text blocks plus at most %d per connection, %d for its batches and %d for a GC",
			got, n, text, minBlocks, maxBlocks, perConn, batches, gcSlack)
	}
}
