//go:build !race

package logs

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
)

// Exact allocation counts live behind !race: the race runtime adds the odd
// allocation of its own to a reading.

// TestParseProxySteadyStateAllocs pins what a warm decoder allocates: nothing
// per record — Domain, URL and Referer, escaped or not, repeated or not, are
// carved from the text block, Host, Method and UserAgent come out of the
// intern table, addresses out of the address front — plus one allocation per
// text block filled and one per value too long to carve.
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
	if d.text.b.Cap() != textBlockBytes {
		t.Fatalf("text block holds %d bytes, want %d", d.text.b.Cap(), textBlockBytes)
	}

	// The allocations the carving rule predicts for the measured rounds, from
	// the room the decoder's current block has left, in the order the
	// decoder carves a record's values.
	predict := func() int {
		want, free := 0, d.text.b.Cap()-d.text.b.Len()
		for r := 0; r < rounds; r++ {
			for _, rec := range recs {
				for _, v := range []string{rec.Domain, rec.URL, rec.Referer} {
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
		return want
	}
	if want := predict(); want <= rounds {
		t.Fatalf("fixture fills %d blocks in %d rounds; it must fill some", want-rounds, rounds)
	}

	// Mallocs counts the whole process, so an allocation by another goroutine
	// (a runtime background worker) can land inside the measured block. The
	// pin stays exact: an attempt that reads more is repeated, up to
	// attempts times, with want recomputed from the block's room at its start;
	// the test passes on the first attempt that reads exactly want, and fails
	// at once on one that reads fewer — no outside allocation explains that.
	const attempts = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got []int
	for a := 0; a < attempts; a++ {
		want := predict()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		allocs := int(after.Mallocs - before.Mallocs)
		if allocs == want {
			return
		}
		if allocs < want {
			t.Fatalf("%d steady-state parses of %d records allocate %d times, want exactly %d (one per text block filled, one per over-long value)", rounds, n, allocs, want)
		}
		got = append(got, allocs-want)
	}
	t.Errorf("in each of %d attempts, %d steady-state parses of %d records allocate more than the one per text block filled and one per over-long value predicted: %v over", attempts, rounds, n, got)
}

// TestAddrFrontAllocs pins the address front's two allocation-free paths: a
// dotted quad it has not seen (a front miss, parsed in place) and an IPv6
// address it has (a front hit, its key held inline in the slot — the 45-byte
// case is the longest zone-less literal there is).
func TestAddrFrontAllocs(t *testing.T) {
	var c addrCache
	var quads [][]byte
	var want []netip.Addr
	for i := 0; i < 4*len(c.front); i++ {
		quads = append(quads, []byte(fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)))
		want = append(want, netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(quads)-1, func() { // one call per quad: each misses
		if a, err := c.parse(quads[next]); err != nil || a != want[next] {
			t.Fatalf("parse(%s) = %v, %v", quads[next], a, err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("a dotted quad missing the front allocates %.1f times, want 0", allocs)
	}
	for _, s := range []string{"2001:db8::1", "ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255"} {
		b, want := []byte(s), netip.MustParseAddr(s)
		if _, err := c.parse(b); err != nil { // claims the slot
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if a, err := c.parse(b); err != nil || a != want {
				t.Fatalf("parse(%s) = %v, %v", s, a, err)
			}
		}); allocs != 0 {
			t.Errorf("IPv6 source %s repeating in the front allocates %.1f times, want 0", s, allocs)
		}
	}
}

// TestAddrCacheRefreshesFront pins the front's collision rule: two addresses
// that share a slot take turns in it — whichever was parsed last holds it —
// always resolve to their own address, and allocate nothing doing so.
func TestAddrCacheRefreshesFront(t *testing.T) {
	slotOf := func(s string) uint64 { return quickHash([]byte(s)) >> (64 - addrFrontBits) }
	a := []byte("10.0.0.1")
	var b []byte
	for i := 2; b == nil; i++ {
		if s := fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255); slotOf(s) == slotOf(string(a)) {
			b = []byte(s)
		}
	}
	var c addrCache
	slot := &c.front[slotOf(string(a))]
	want := map[string]netip.Addr{string(a): netip.MustParseAddr(string(a)), string(b): netip.MustParseAddr(string(b))}
	check := func(in []byte) {
		got, err := c.parse(in)
		if err != nil || got != want[string(in)] {
			t.Fatalf("parse(%s) = %v, %v", in, got, err)
		}
		if string(slot.key[:slot.n]) != string(in) || slot.addr != got {
			t.Fatalf("after parse(%s) the shared slot holds %q", in, slot.key[:slot.n])
		}
	}
	check(a)
	check(b)
	if allocs := testing.AllocsPerRun(50, func() { check(a); check(b) }); allocs != 0 {
		t.Errorf("alternating colliding addresses allocate %.1f per pair, want 0", allocs)
	}
}

// TestProxyBufRoundTripAllocs pins a warm GetProxyBuf / PutProxyBuf pair at
// zero allocations: the pool's *[]ProxyRecord holder is recycled with the
// buffer instead of a fresh slice header escaping on every Put.
func TestProxyBufRoundTripAllocs(t *testing.T) {
	round := func() {
		b := GetProxyBuf(64)
		b = append(b, ProxyRecord{Host: "h"})
		PutProxyBuf(b)
	}
	round() // warm: one buffer and one holder in the pools
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("GetProxyBuf + PutProxyBuf allocate %.1f times per pair, want 0", allocs)
	}
}
