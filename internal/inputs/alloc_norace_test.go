//go:build !race

package inputs

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/logs"
)

// TestHandleConnAllocs pins what the reader chain allocates: nothing per
// record — frames are decoded in place into the pooled batch, the bounded
// columns come out of the warm intern table, addresses out of the address
// front, Domain, URL and Referer are carved from the decoder's text block —
// plus one allocation per 32 KiB text block the connection fills. On top of
// that, a connection allocates perConn objects once (the connection reader,
// the scanner, the decoder handle, the routing wait group, and this test's
// reader and conn; the 64 KiB read buffer is pooled) and one routed callback
// per batch. A connection of one chunk never starts the read-ahead; one that
// streams past its first read pays the read-ahead's aheadAllocs on top (its
// buffers are pooled too). A GC cycle inside the five measured runs makes
// every pool the connection touches allocate its per-P array again, gcSlack
// averaged over the runs. Behind !race because sync.Pool drops Puts at random
// under the race detector, which turns the pooled decoder, batch and read
// buffers into fresh allocations.
func TestHandleConnAllocs(t *testing.T) {
	const perConn, gcSlack = 6, 3
	const textBlock = 32 << 10 // the decoder's text block size
	for _, tc := range []struct {
		name    string
		n       int
		perConn int
	}{
		{"one chunk", 250, perConn},
		{"streaming", 2000, perConn + aheadAllocs},
	} {
		batches := (tc.n + DefaultBatchRecords - 1) / DefaultBatchRecords
		recs := make([]logs.ProxyRecord, tc.n)
		text, longest := 0, 0
		for i := range recs {
			recs[i] = testProxyRecord(i)
			recs[i].Domain = fmt.Sprintf("d%d.example.org", i) // a fresh name per record, as churn traffic brings
			recs[i].URL = fmt.Sprintf("/page/%d", i)
			recs[i].Referer = fmt.Sprintf("http://site-0.example.org/from/%d", i)
			text += len(recs[i].Domain) + len(recs[i].URL) + len(recs[i].Referer)
			longest = max(longest, len(recs[i].Domain), len(recs[i].URL), len(recs[i].Referer))
		}
		// A connection starts a block whenever the next value does not fit:
		// at least every textBlock bytes, at most every textBlock-longest,
		// plus one for the block it found nearly full.
		minBlocks, maxBlocks := text/textBlock, text/(textBlock-longest)+1
		wire := frameProxy(FramingNewline, recs)
		if streams := len(wire) > readChunk; streams != (tc.perConn > perConn) {
			t.Fatalf("%s: %d bytes on the wire against a %d-byte chunk", tc.name, len(wire), readChunk)
		}
		l := NewListener(nopEngine{}, Config{Name: "t"})
		run := func() {
			if err := l.HandleConn(&readerConn{r: bytes.NewReader(wire)}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled decoder's intern table, the batch and the read buffers
		if got := testing.AllocsPerRun(5, run); got < float64(minBlocks) || got > float64(maxBlocks+tc.perConn+batches+gcSlack) {
			t.Errorf("%s: %.0f allocations for %d records (%d bytes of Domain, URL and Referer), want %d..%d text blocks plus at most %d per connection, %d for its batches and %d for a GC",
				tc.name, got, tc.n, text, minBlocks, maxBlocks, tc.perConn, batches, gcSlack)
		}
	}
}

// aheadAllocs is what starting and joining a read-ahead allocates: its two
// slot channels, its quit channel and its goroutine. Its state lives in the
// connection reader and its buffers come from chunkPool, so a warm one
// allocates nothing else.
const aheadAllocs = 4

// TestReadAheadAllocs pins aheadAllocs exactly.
func TestReadAheadAllocs(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcde\n"), 4*readChunk/16)
	src := bytes.NewReader(data)
	var ra readAhead
	p := make([]byte, readChunk)
	run := func() {
		src.Reset(data)
		ra.start(src)
		got := 0
		for {
			n, err := ra.Read(p)
			got += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ra.stop()
		if got != len(data) {
			t.Fatalf("read %d bytes through the read-ahead, want %d", got, len(data))
		}
	}
	run() // warm chunkPool
	if got := testing.AllocsPerRun(20, run); got != aheadAllocs {
		t.Errorf("a read-ahead allocates %.1f times from start to stop, want exactly %d", got, aheadAllocs)
	}
}
