//go:build !race

package logs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Exact allocation counts live behind !race: the race runtime adds the odd
// allocation of its own to a reading.

// TestParseProxySteadyStateAllocs pins what a warm decoder allocates: nothing
// per record — URL and Referer, escaped or not, repeated or not, are carved
// from the text block, every other column comes out of the intern table and
// the address cache — plus one allocation per text block filled and one per
// URL or Referer too long to carve.
func TestParseProxySteadyStateAllocs(t *testing.T) {
	const n, rounds = 512, 20
	recs := sampleProxyRecords(n)
	for i := range recs {
		switch i % 4 {
		case 0: // the sample's constant URL and Referer
		case 1:
			recs[i].URL, recs[i].Referer = fmt.Sprintf("http://example.net/page/%d", i), ""
		case 2:
			recs[i].URL, recs[i].Referer = "", fmt.Sprintf("http://example.net/from\t%d", i) // unescaped through the scratch buffer
		case 3:
			recs[i].URL, recs[i].Referer = "", ""
		}
	}
	recs[4].URL = "http://example.net/" + strings.Repeat("u", textMaxCarve) // gets a string of its own
	data := encodeProxyTSV(recs)
	d := NewProxyDecoder()
	buf := make([]ProxyRecord, 0, n)
	rd := bytes.NewReader(data)
	parse := func() {
		rd.Reset(data)
		got, err := ReadProxyBatch(rd, d, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d records, want %d", len(got), n)
		}
	}
	parse() // warm the intern and address caches
	if d.text.Cap() != textBlockBytes {
		t.Fatalf("text block holds %d bytes, want %d", d.text.Cap(), textBlockBytes)
	}

	// The allocations the carving rule predicts for the measured rounds, from
	// the room the warm-up left in the current block.
	want, free := 0, d.text.Cap()-d.text.Len()
	for r := 0; r < rounds; r++ {
		for _, rec := range recs {
			for _, v := range []string{rec.URL, rec.Referer} {
				switch {
				case v == "":
				case len(v) > textMaxCarve:
					want++
				case len(v) > free:
					want, free = want+1, textBlockBytes-len(v)
				default:
					free -= len(v)
				}
			}
		}
	}
	if want <= rounds {
		t.Fatalf("fixture fills %d blocks in %d rounds; it must fill some", want-rounds, rounds)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	if got := int(after.Mallocs - before.Mallocs); got != want {
		t.Errorf("%d steady-state parses of %d records allocate %d times, want exactly %d (one per text block filled, one per over-long value)", rounds, n, got, want)
	}
}
