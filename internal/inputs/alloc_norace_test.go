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
// plus one allocation per 32 KiB text block the connection fills. What a
// connection allocates once (scanner, 64 KiB buffer, decoder handles) is the
// fixed slack. Behind !race because sync.Pool drops Puts at random under the
// race detector, which turns the pooled decoder and batch into fresh
// allocations.
func TestHandleConnAllocs(t *testing.T) {
	const n, perConn = 2000, 32
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
	run() // warm the pooled decoder's intern table and the batch buffer
	if got := testing.AllocsPerRun(5, run); got < float64(minBlocks) || got > float64(maxBlocks+perConn) {
		t.Errorf("%.0f allocations for %d records (%d bytes of Domain, URL and Referer), want %d..%d text blocks plus at most %d per connection",
			got, n, text, minBlocks, maxBlocks, perConn)
	}
}
