package logs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// sampleProxyRecords builds a day fragment with the value shape the
// interning path is designed for: a bounded working set of hosts, domains
// and agents cycling under high record volume. Every record carries the same
// URL and the same Referer, which no real proxy log does: allocation and speed
// figures are read off it only beside the enterprise day (benchInputs).
func sampleProxyRecords(n int) []ProxyRecord {
	base := time.Date(2014, 2, 13, 9, 0, 0, 0, time.UTC)
	agents := []string{"Mozilla/5.0 (Windows NT 6.1)", "curl/7.30.0", "beacon-agent/2.1"}
	recs := make([]ProxyRecord, n)
	for i := range recs {
		recs[i] = ProxyRecord{
			Time:      base.Add(time.Duration(i) * 1500 * time.Millisecond),
			Host:      fmt.Sprintf("host-%03d", i%64),
			SrcIP:     netip.AddrFrom4([4]byte{10, 1, byte(i % 64), 7}),
			Domain:    fmt.Sprintf("dom-%03d.example.net", i%61),
			DestIP:    netip.AddrFrom4([4]byte{198, 51, 100, byte(i % 61)}),
			URL:       "http://example.net/index.html",
			Method:    "GET",
			Status:    200,
			UserAgent: agents[i%len(agents)],
			Referer:   "http://example.net/",
			TZOffset:  -5,
		}
	}
	return recs
}

func encodeProxyTSV(recs []ProxyRecord) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendProxy(buf, r)
	}
	return buf
}

// TestAppendEncodersMatchNaive pins the append encoders to the exact bytes
// the fmt.Fprintf write path produced, across the awkward cases: invalid
// addresses, escaped free text, sub-second precision, negative numbers.
func TestAppendEncodersMatchNaive(t *testing.T) {
	prox := []ProxyRecord{
		sampleProxyRecords(1)[0],
		{Time: time.Date(2014, 2, 13, 9, 0, 0, 123456789, time.UTC),
			Host: "h", SrcIP: netip.MustParseAddr("10.0.0.1"), Domain: "d.com",
			URL: "http://d.com/a\tb\nc\\d", Method: "POST", Status: -1,
			UserAgent: "ua with\ttab", Referer: "r\\", TZOffset: -11},
		{}, // zero record: invalid IPs, zero time
	}
	for i, r := range prox {
		dest := ""
		if r.DestIP.IsValid() {
			dest = r.DestIP.String()
		}
		want := fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%d\n",
			r.Time.UTC().Format(timeLayout), r.Host, r.SrcIP, r.Domain, dest,
			escapeField(r.URL), r.Method, r.Status,
			escapeField(r.UserAgent), escapeField(r.Referer), r.TZOffset)
		if got := string(AppendProxy(nil, r)); got != want {
			t.Errorf("proxy record %d:\n got %q\nwant %q", i, got, want)
		}
	}

	dns := []DNSRecord{
		{Time: time.Date(2013, 3, 4, 12, 0, 0, 500000000, time.UTC),
			SrcIP: netip.MustParseAddr("10.0.0.1"), Query: "q.c3", Type: TypeA,
			Answer: netip.MustParseAddr("191.146.166.145"), Internal: true, Server: true},
		{},
	}
	for i, r := range dns {
		answer := ""
		if r.Answer.IsValid() {
			answer = r.Answer.String()
		}
		want := fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Time.UTC().Format(timeLayout), r.SrcIP, r.Query, r.Type,
			answer, boolField(r.Internal), boolField(r.Server))
		if got := string(AppendDNS(nil, r)); got != want {
			t.Errorf("dns record %d:\n got %q\nwant %q", i, got, want)
		}
	}

	flows := []FlowRecord{
		{Time: time.Date(2014, 2, 13, 9, 0, 1, 0, time.UTC),
			SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("203.0.113.9"),
			DstPort: 443, Protocol: "tcp", Bytes: -12, Packets: 9},
		{},
	}
	for i, r := range flows {
		want := fmt.Sprintf("%s\t%s\t%s\t%d\t%s\t%d\t%d\n",
			r.Time.UTC().Format(timeLayout), r.SrcIP, r.DstIP, r.DstPort,
			r.Protocol, r.Bytes, r.Packets)
		if got := string(AppendFlow(nil, r)); got != want {
			t.Errorf("flow record %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestReadProxyBatchRoundTrip drives the batch reader over an encoded day
// fragment and requires byte-identical re-encoding, so interning is proven
// invisible to the persisted form.
func TestReadProxyBatchRoundTrip(t *testing.T) {
	want := sampleProxyRecords(500)
	data := encodeProxyTSV(want)

	d := NewProxyDecoder()
	got, err := ReadProxyBatch(bytes.NewReader(data), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	if !bytes.Equal(encodeProxyTSV(got), data) {
		t.Fatal("re-encoded batch differs from original bytes")
	}
	// Interning must actually be happening: both records carrying
	// "host-001" share one backing string via the table.
	if d.in.Len() == 0 {
		t.Fatal("decoder interned nothing on a repeated-value batch")
	}
}

// TestReadProxyBatchAppendsInto verifies the caller-owned-buffer contract:
// existing records stay, capacity is reused.
func TestReadProxyBatchAppendsInto(t *testing.T) {
	recs := sampleProxyRecords(10)
	data := encodeProxyTSV(recs[5:])
	buf := make([]ProxyRecord, 0, 64)
	buf = append(buf, recs[:5]...)
	got, err := ReadProxyBatch(bytes.NewReader(data), nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d records, want 10", len(got))
	}
	if &got[0] != &buf[0] {
		t.Fatal("reader reallocated a buffer with spare capacity")
	}
	if got[0].Host != recs[0].Host || got[9].Host != recs[9].Host {
		t.Fatal("append clobbered existing records")
	}
}

// TestProxyReaderMatchesReadProxyBatch holds the chunked reader to the
// one-shot one it now implements: whatever the chunk size, the concatenated
// chunks, the final error text and the framing buffer the decoder keeps are
// those of a single ReadProxyBatch over the same bytes.
func TestProxyReaderMatchesReadProxyBatch(t *testing.T) {
	recs := sampleProxyRecords(60)
	recs[40].URL = "http://example.net/" + strings.Repeat("u", 100*1024) // outgrows the 64 KiB framing buffer
	lf := encodeProxyTSV(recs)
	at := func(line int) int { // offset of the given 0-based line in lf
		return len(bytes.Join(bytes.SplitAfter(lf, []byte("\n"))[:line], nil))
	}
	inputs := map[string][]byte{
		"lf":          lf,
		"crlf":        bytes.ReplaceAll(lf, []byte("\n"), []byte("\r\n")),
		"no-trailing": bytes.TrimSuffix(lf, []byte("\n")),
		"empty":       nil,
		"malformed":   slices.Concat(lf[:at(20)], []byte("not\ta\tproxy\tline\n"), lf[at(20):]),
		"too-long":    slices.Concat(lf[:at(9)], bytes.Repeat([]byte("x"), maxLineBytes+1), []byte("\n"), lf[at(9):]),
	}
	for name, data := range inputs {
		d := NewProxyDecoder()
		want, wantErr := ReadProxyBatch(bytes.NewReader(data), d, nil)
		switch name {
		case "malformed":
			if wantErr == nil || !strings.HasPrefix(wantErr.Error(), "line 21: ") || len(want) != 20 {
				t.Fatalf("%s: one-shot read gave %d records and %v", name, len(want), wantErr)
			}
		case "too-long":
			if !errors.Is(wantErr, bufio.ErrTooLong) || !strings.HasPrefix(wantErr.Error(), "line 10: ") || len(want) != 9 {
				t.Fatalf("%s: one-shot read gave %d records and %v", name, len(want), wantErr)
			}
		default:
			if wantErr != nil {
				t.Fatalf("%s: %v", name, wantErr)
			}
		}
		for _, max := range []int{1, 2, 7, 4096} {
			cd := NewProxyDecoder()
			pr := NewProxyReader(bytes.NewReader(data), cd)
			var got []ProxyRecord
			var err error
			for err == nil {
				var chunk []ProxyRecord
				chunk, err = pr.Next(nil, max)
				if len(chunk) > max {
					t.Fatalf("%s: Next(%d) returned %d records", name, max, len(chunk))
				}
				got = append(got, chunk...)
			}
			if err == io.EOF {
				err = nil
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s, max %d: err = %v, want %v", name, max, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, max %d: %d records differ from the one-shot read's %d", name, max, len(got), len(want))
			}
			if len(cd.readBuf) != len(d.readBuf) {
				t.Errorf("%s, max %d: decoder keeps a %d-byte framing buffer, one-shot keeps %d", name, max, len(cd.readBuf), len(d.readBuf))
			}
		}
	}
}

// TestProxyBufPool pins the recycling contract: Get honors the capacity
// request, Put clears the used region so pooled buffers pin nothing.
func TestProxyBufPool(t *testing.T) {
	buf := GetProxyBuf(128)
	if cap(buf) < 128 || len(buf) != 0 {
		t.Fatalf("GetProxyBuf(128): len %d cap %d", len(buf), cap(buf))
	}
	buf = append(buf, sampleProxyRecords(3)...)
	full := buf[:cap(buf)]
	PutProxyBuf(buf)
	for i := 0; i < 3; i++ {
		if full[i].Host != "" || full[i].URL != "" {
			t.Fatal("PutProxyBuf left record strings behind")
		}
	}
	PutProxyBuf(nil) // must not panic
}

// TestPooledDecoderCrossesGoroutines: records a decoder returned stay intact
// while the decoder, back in the pool, decodes for another goroutine into the
// same text block. Under -race it also shows that the two goroutines never
// touch the same bytes: the reader reads what was carved before the hand-off,
// the new owner appends past it.
func TestPooledDecoderCrossesGoroutines(t *testing.T) {
	batch := func(tag string, n int) ([]ProxyRecord, []byte) {
		recs := sampleProxyRecords(n)
		for i := range recs {
			recs[i].Domain = fmt.Sprintf("%s-%d.example.com", tag, i)
			recs[i].URL = fmt.Sprintf("http://example.net/%s/%d", tag, i)
			recs[i].Referer = fmt.Sprintf("http://%s.example.org/%d", tag, i)
		}
		return recs, encodeProxyTSV(recs)
	}
	want, mine := batch("first", 200)
	_, theirs := batch("second", 2000) // runs past the end of the block
	// same compares byte by byte, so every read is one the race detector sees.
	same := func(a, b string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := 0; i < len(a); i++ {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	handoffs := 0
	for attempt := 0; attempt < 50 && handoffs < 3; attempt++ {
		d := GetProxyDecoder()
		got, err := ReadProxyBatch(bytes.NewReader(mine), d, nil)
		if err != nil {
			t.Fatal(err)
		}
		PutProxyDecoder(d)
		took := make(chan bool)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := GetProxyDecoder()
			took <- dec == d
			if _, err := ReadProxyBatch(bytes.NewReader(theirs), dec, nil); err != nil {
				t.Error(err)
			}
			PutProxyDecoder(dec)
		}()
		if <-took {
			handoffs++
		}
		for pass := 0; pass < 2; pass++ { // while the other goroutine decodes, then after
			for i := range got {
				g, w := &got[i], &want[i]
				if !same(g.Domain, w.Domain) || !same(g.URL, w.URL) || !same(g.Referer, w.Referer) {
					t.Fatalf("record %d reads (%q, %q, %q) after its decoder moved on, want (%q, %q, %q)",
						i, g.Domain, g.URL, g.Referer, w.Domain, w.URL, w.Referer)
				}
			}
			if pass == 0 {
				wg.Wait()
			}
		}
	}
	if handoffs == 0 {
		t.Fatal("in 50 attempts the pool never handed the decoder to the other goroutine")
	}
	t.Logf("%d hand-offs", handoffs)
}

// TestScannerErrorsCarryLineNumber locks the satellite fix: a too-long
// line used to surface as a bare bufio.ErrTooLong with no position; every
// reader must now wrap it with the 1-based line number where the scan
// died.
func TestScannerErrorsCarryLineNumber(t *testing.T) {
	long := strings.Repeat("x", maxLineBytes+1)
	check := func(t *testing.T, err error, wantLine int) {
		t.Helper()
		if err == nil {
			t.Fatal("expected an error for an over-long line")
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("error %v does not wrap bufio.ErrTooLong", err)
		}
		if want := fmt.Sprintf("line %d:", wantLine); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	validProxy := strings.TrimSuffix(string(encodeProxyTSV(sampleProxyRecords(2))), "\n")
	t.Run("proxy", func(t *testing.T) {
		err := ReadProxy(strings.NewReader(validProxy+"\n"+long), func(ProxyRecord) error { return nil })
		check(t, err, 3)
	})
	t.Run("proxy-batch", func(t *testing.T) {
		_, err := ReadProxyBatch(strings.NewReader(validProxy+"\n"+long), nil, nil)
		check(t, err, 3)
	})
	t.Run("dns", func(t *testing.T) {
		err := ReadDNS(strings.NewReader(long), func(DNSRecord) error { return nil })
		check(t, err, 1)
	})
	t.Run("flow", func(t *testing.T) {
		err := ReadFlows(strings.NewReader(long), func(FlowRecord) error { return nil })
		check(t, err, 1)
	})
}

// TestInternCaps proves hostile high-cardinality input cannot balloon the
// table — retention stays under the caps and decoding still succeeds — and
// that reaching a cap does not stop the table interning for the rest of the
// decoder's life.
func TestInternCaps(t *testing.T) {
	in := NewIntern()
	if got := in.Bytes([]byte("abc")); got != "abc" {
		t.Fatalf("Bytes = %q", got)
	}
	a := in.Bytes([]byte("abc"))
	b := in.Bytes([]byte("abc"))
	// Same backing allocation: unsafe-free check via the table's count.
	if a != b || in.Len() != 1 {
		t.Fatalf("dedup failed: %q %q, len %d", a, b, in.Len())
	}
	// Oversized strings are returned but never retained.
	huge := strings.Repeat("u", internMaxStrLen+1)
	if got := in.Bytes([]byte(huge)); got != huge {
		t.Fatal("oversized value corrupted")
	}
	if in.Len() != 1 {
		t.Fatalf("oversized value was retained (len %d)", in.Len())
	}
	// The byte budget caps total retention no matter how many distinct
	// values stream through. Each value stays under the per-string cap so
	// only the byte budget can stop retention.
	filler := strings.Repeat("f", internMaxStrLen-7)
	for i := 0; i < internMaxBytes/(internMaxStrLen-6)+100; i++ {
		in.Bytes([]byte(fmt.Sprintf("%s-%06d", filler, i)))
	}
	if in.bytes > internMaxBytes {
		t.Fatalf("retained %d bytes, cap %d", in.bytes, internMaxBytes)
	}
	if in.Len() >= internMaxEntries {
		t.Fatalf("entry count %d should have been stopped by the byte cap first", in.Len())
	}

	// At the entry cap the table starts over instead of freezing: a decoder
	// that has seen 65,536 distinct values still interns the ones arriving
	// now. collide returns an unrelated value that shares v's front slot, so
	// the second sight of v below is answered by the map, not the front.
	collide := func(v string) []byte {
		slot := quickHash([]byte(v)) >> (64 - internFrontBits)
		for i := 0; ; i++ {
			c := []byte(fmt.Sprintf("198.18.%d.%d", i>>8, i&0xff))
			if string(c) != v && quickHash(c)>>(64-internFrontBits) == slot {
				return c
			}
		}
	}
	in = NewIntern()
	for i := 0; i < internMaxEntries; i++ {
		in.Bytes([]byte(fmt.Sprintf("v-%d", i)))
	}
	if in.Len() != internMaxEntries {
		t.Fatalf("table holds %d entries after %d distinct values", in.Len(), internMaxEntries)
	}
	in.Bytes([]byte("one more"))
	if in.Len() != 1 || in.bytes != len("one more") {
		t.Fatalf("after cap+1 distinct values the table holds %d entries (%d bytes), want a fresh start with 1", in.Len(), in.bytes)
	}
	const late = "Mozilla/5.0 (first seen after the turnover)"
	first := in.Bytes([]byte(late))
	in.Bytes(collide(late))
	if second := in.Bytes([]byte(late)); unsafe.StringData(second) != unsafe.StringData(first) {
		t.Error("a value first seen after the turnover was allocated again on its second sight")
	}
}

// TestEncodeProxyAllocs pins the append encoder's steady state: zero
// allocations per record once the destination buffer has grown.
func TestEncodeProxyAllocs(t *testing.T) {
	recs := sampleProxyRecords(256)
	dst := encodeProxyTSV(recs) // size the buffer
	perRecord := testing.AllocsPerRun(20, func() {
		dst = dst[:0]
		for _, r := range recs {
			dst = AppendProxy(dst, r)
		}
	}) / float64(len(recs))
	if perRecord > 0 {
		t.Errorf("steady-state encode allocates %.3f allocs/record, want 0", perRecord)
	}
}

// TestCutTSV pins the cutter to strings.Split field semantics, including
// the true-count contract beyond the destination's capacity.
func TestCutTSV(t *testing.T) {
	cases := []string{"", "a", "a\tb", "\t", "\t\t", "a\t\tb\t", "one\ttwo\tthree",
		// SWAR borrow regression: a tab directly before 0x08 (tab^0x09=0x01)
		// must not flag the 0x08 as a phantom tab. Exercise every alignment
		// of the pair within an eight-byte word.
		"\t\b", "a\t\bb", "ab\t\bcd", "abc\t\bde", "abcd\t\bef",
		"abcde\t\bf", "abcdef\t\bg", "abcdefg\t\bh", "\x08\t\b\t\x08"}
	for _, s := range cases {
		want := strings.Split(s, "\t")
		var dst [4][]byte
		n := cutTSV([]byte(s), dst[:])
		if n != len(want) {
			t.Errorf("cutTSV(%q) count = %d, want %d", s, n, len(want))
			continue
		}
		for i := 0; i < n && i < len(dst); i++ {
			if string(dst[i]) != want[i] {
				t.Errorf("cutTSV(%q) field %d = %q, want %q", s, i, dst[i], want[i])
			}
		}
	}
	// More fields than capacity: count is still exact.
	var two [2][]byte
	if n := cutTSV([]byte("a\tb\tc\td"), two[:]); n != 4 {
		t.Errorf("overflow count = %d, want 4", n)
	}
}

// TestParseTimestampFallback holds the timestamp parser to time.Parse on both
// sides of the strict layout's edge: what the strict scanner takes (0 to 9
// fraction digits, leap days) and what it must hand to the fallback or refuse
// (numeric offsets, 10 fraction digits, a missing Z, a lower-case t, a field
// that ends after the date, :60 seconds, impossible days).
func TestParseTimestampFallback(t *testing.T) {
	var tc tsCache // shared across cases so the warm date-cache path runs too
	for _, s := range []string{
		"2014-02-13T09:00:00+02:00",
		"2014-02-13T09:00:00-11:30",
		"2014-02-13T09:00:00.1234567891Z",
		"2014-02-29T00:00:00Z",   // 2014 is not a leap year: must reject
		"2016-02-29T00:00:00Z",   // 2016 is: must accept
		"2014-02-13T24:00:00Z",   // hour out of range
		"2014-13-13T09:00:00Z",   // month out of range
		"2014-02-13T09:00:00.5Z", // strict path
		"2014-02-13T09:00:00Z",
		"2014-02-13T09:00:00.12Z",
		"2014-02-13T09:00:00.123Z",
		"2014-02-13T09:00:00.1234Z",
		"2014-02-13T09:00:00.12345Z",
		"2014-02-13T09:00:00.123456Z",
		"2014-02-13T09:00:00.1234567Z",
		"2014-02-13T09:00:00.12345678Z",
		"2014-02-13T09:00:00.123456789Z",
		"2014-02-13T09:00:00.Z",   // a dot and no digits
		"2014-02-13T09:00:00",     // missing Z
		"2014-02-13T09:00:00.25",  // missing Z after a fraction
		"2014-02-13t09:00:00Z",    // lower-case t
		"2014-02-13",              // the field ends (a tab follows) straight after the date
		"2014-02-13T09:00:60Z",    // :60 seconds
		"2014-02-13T09:60:00Z",    // :60 minutes
		"2016-02-30T00:00:00Z",    // Feb 30 in a leap year
		"2014-02-13T09:00:00.5Z ", // trailing byte after the Z
	} {
		want, wantErr := time.Parse(timeLayout, s)
		got, gotErr := tc.parseTimestamp([]byte(s))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: accept mismatch (fast %v, time.Parse %v)", s, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !timesEquivalent(got, want) {
			t.Errorf("%q: fast %v, time.Parse %v", s, got, want)
		}
	}
}
