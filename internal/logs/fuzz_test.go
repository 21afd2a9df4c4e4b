package logs

import (
	"net/netip"
	"strings"
	"testing"
	"time"
)

// foldDomainRef is the straightforward Split/Join folding the allocation-
// free FoldDomain replaced; the fuzzer holds the two equivalent on
// arbitrary input.
func foldDomainRef(domain string, n int) string {
	d := strings.ToLower(strings.TrimSuffix(domain, "."))
	if n <= 0 {
		return d
	}
	labels := strings.Split(d, ".")
	if len(labels) <= n {
		return d
	}
	return strings.Join(labels[len(labels)-n:], ".")
}

// FuzzFoldDomain differentially fuzzes the hot-path domain folding against
// the reference implementation and checks its structural guarantees: the
// result is a label-suffix of the lowercased input, has at most n labels,
// and folding is idempotent.
func FuzzFoldDomain(f *testing.F) {
	for _, seed := range []string{
		"news.nbc.com", "NBC.COM.", "a.b.c.d.e", "", ".", "..", "...",
		"trailing.dot.", "a..b", "xn--bcher-kva.example",
		"ünïcode.пример.рф", "single", "localhost.",
	} {
		for _, n := range []int{0, 1, 2, 3, 7} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, domain string, n int) {
		got := FoldDomain(domain, n)
		if want := foldDomainRef(domain, n); got != want {
			t.Fatalf("FoldDomain(%q, %d) = %q, reference = %q", domain, n, got, want)
		}
		lower := strings.ToLower(strings.TrimSuffix(domain, "."))
		if !strings.HasSuffix(lower, got) {
			t.Fatalf("FoldDomain(%q, %d) = %q is not a suffix of %q", domain, n, got, lower)
		}
		if n > 0 && got != "" {
			if labels := strings.Count(got, ".") + 1; labels > n {
				t.Fatalf("FoldDomain(%q, %d) = %q has %d labels", domain, n, got, labels)
			}
		}
		// Folding is idempotent except on degenerate all-dot names, where
		// re-folding strips another trailing dot (".." -> "." -> "").
		if !strings.HasSuffix(got, ".") {
			if again := FoldDomain(got, n); again != got {
				t.Fatalf("FoldDomain not idempotent: %q -> %q -> %q", domain, got, again)
			}
		}
	})
}

// timesEquivalent compares parsed timestamps the way the codec cares
// about: same instant and same zone offset. Pointer-identical Locations
// are not required — the naive and fast paths may both call
// time.FixedZone, which allocates a fresh Location per call.
func timesEquivalent(a, b time.Time) bool {
	if !a.Equal(b) {
		return false
	}
	_, oa := a.Zone()
	_, ob := b.Zone()
	return oa == ob
}

func proxyRecordsEquivalent(a, b ProxyRecord) bool {
	return timesEquivalent(a.Time, b.Time) &&
		a.Host == b.Host && a.SrcIP == b.SrcIP && a.Domain == b.Domain &&
		a.DestIP == b.DestIP && a.URL == b.URL && a.Method == b.Method &&
		a.Status == b.Status && a.UserAgent == b.UserAgent &&
		a.Referer == b.Referer && a.TZOffset == b.TZOffset
}

// FuzzParseProxyLine differentially fuzzes the zero-copy proxy parser
// against the retained naive reference: identical accept/reject decisions
// and, on accept, byte-for-byte identical records — which is what makes
// field interning invisible to every persisted form. Each input is decoded
// twice through one decoder so the second pass exercises the warm intern
// table and address front. A cold decoder then decodes the line, an unrelated
// record and the line again through one text block: the first record's
// Domain, URL and Referer must still equal the naive parser's after the later
// records were carved behind them (the block is append-only), and the intern
// table must hold the three bounded columns (Host, Method, UserAgent) and
// nothing else.
func FuzzParseProxyLine(f *testing.F) {
	seeds := []string{
		"2014-02-13T09:00:00Z\thost1\t10.1.2.3\texample.org\t198.51.100.7\thttp://example.org/a\tGET\t200\tMozilla/5.0\thttp://ref.example.org/\t-5",
		"2014-02-13T09:00:00.123456789Z\th\t10.0.0.1\td.com\t\tu\\tq\tPOST\t504\tua\\nx\t\t0",
		"2014-02-13T09:00:00+02:00\th\t10.0.0.1\td.com\t\tu\tGET\t200\tua\tref\t2",
		"2014-02-13T09:00:00.5Z\th\tfe80::1%eth0\td.com\t\tu\tGET\t200\tua\tref\t0",
		"2014-02-31T09:00:00Z\th\t10.0.0.1\td.com\t\tu\tGET\t200\tua\tref\t0",
		"2014-02-13T09:00:00,5Z\th\t10.0.0.1\td.com\t\tu\tGET\t200\tua\tref\t0",
		"2014-02-13T09:00:00.1234567890123Z\th\t10.0.0.1\td.com\t\tu\tGET\t200\tua\tref\t0",
		"bad-time\th\t10.0.0.1\td.com\t\tu\tGET\t200\tua\tref\t0",
		"2014-02-13T09:00:00Z\th\t10.0.0.1\td.com\t\tu\tGET\t+200\tua\tref\t-0",
		"2014-02-13T09:00:00Z\th\t10.0.0.1\td.com\t\tu\tGET\t99999999999999999999\tua\tref\t0",
		"too\tfew", "", "\t\t\t\t\t\t\t\t\t\t", "a\tb\tc\td\te\tf\tg\th\ti\tj\tk\tl",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	d := NewProxyDecoder()
	f.Fuzz(func(t *testing.T, line string) {
		want, wantErr := parseProxyLine(line)
		for pass := 0; pass < 2; pass++ {
			got, gotErr := d.ParseProxyRecord([]byte(line))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("pass %d: accept mismatch on %q: fast err %v, naive err %v", pass, line, gotErr, wantErr)
			}
			if wantErr == nil && !proxyRecordsEquivalent(got, want) {
				t.Fatalf("pass %d: record mismatch on %q:\nfast:  %+v\nnaive: %+v", pass, line, got, want)
			}
		}
		if wantErr != nil {
			return
		}
		cold := NewProxyDecoder()
		var first ProxyRecord
		for i, l := range []string{line, seeds[0], line} {
			got, err := cold.ParseProxyRecord([]byte(l))
			if err != nil {
				t.Fatalf("cold decoder rejects %q: %v", l, err)
			}
			if i == 0 {
				first = got
			}
			if l == line && (got.Domain != want.Domain || got.URL != want.URL || got.Referer != want.Referer) {
				t.Fatalf("Domain/URL/Referer mismatch on %q: fast (%q, %q, %q), naive (%q, %q, %q)",
					line, got.Domain, got.URL, got.Referer, want.Domain, want.URL, want.Referer)
			}
		}
		if first.Domain != want.Domain || first.URL != want.URL || first.Referer != want.Referer {
			t.Fatalf("Domain/URL/Referer of %q changed after later records were decoded: now (%q, %q, %q), naive (%q, %q, %q)",
				line, first.Domain, first.URL, first.Referer, want.Domain, want.URL, want.Referer)
		}
		other, _ := parseProxyLine(seeds[0])
		interned := map[string]bool{}
		for _, r := range []ProxyRecord{want, other} {
			for _, v := range []string{r.Host, r.Method, r.UserAgent} {
				if v != "" && len(v) <= internMaxStrLen {
					interned[v] = true
				}
			}
		}
		if cold.in.Len() != len(interned) {
			t.Fatalf("intern table holds %d strings after %q, want the %d distinct Host/Method/UserAgent values", cold.in.Len(), line, len(interned))
		}
	})
}

// FuzzParseDNSLine holds the DNS fast path to the naive reference the same
// way.
func FuzzParseDNSLine(f *testing.F) {
	seeds := []string{
		"2013-03-04T12:00:00Z\t74.92.144.170\trainbow-.c3\tA\t191.146.166.145\t0\t0",
		"2013-03-04T12:00:00Z\t10.0.0.1\tprinter.lanl.internal\tA\t\t1\t1",
		"2013-03-04T12:00:00.25Z\t10.0.0.2\tmail.example.com\tTXT\t\t0\t0",
		"2013-03-04T12:00:00Z\t10.0.0.1\tq.c3\tBOGUS\t\t0\t0",
		"not\tenough\tfields", "",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	d := NewDNSDecoder()
	f.Fuzz(func(t *testing.T, line string) {
		want, wantErr := parseDNSLine(line)
		got, gotErr := d.ParseDNSRecord([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch on %q: fast err %v, naive err %v", line, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !timesEquivalent(got.Time, want.Time) || got.SrcIP != want.SrcIP ||
			got.Query != want.Query || got.Type != want.Type || got.Answer != want.Answer ||
			got.Internal != want.Internal || got.Server != want.Server {
			t.Fatalf("record mismatch on %q:\nfast:  %+v\nnaive: %+v", line, got, want)
		}
	})
}

// FuzzParseFlowLine holds the flow fast path to the naive reference the
// same way.
func FuzzParseFlowLine(f *testing.F) {
	seeds := []string{
		"2014-02-13T09:00:00Z\t10.1.2.3\t203.0.113.9\t443\ttcp\t1234\t9",
		"2014-02-13T09:00:00Z\t10.1.2.3\t203.0.113.9\t70000\ttcp\t1\t1",
		"2014-02-13T09:00:00Z\t10.1.2.3\t203.0.113.9\t-1\tudp\t1\t1",
		"2014-02-13T09:00:00Z\t10.1.2.3\t203.0.113.9\t53\tudp\t-5\t+2",
		"x\ty", "",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	d := NewFlowDecoder()
	f.Fuzz(func(t *testing.T, line string) {
		want, wantErr := parseFlowLine(line)
		got, gotErr := d.ParseFlowRecord([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch on %q: fast err %v, naive err %v", line, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !timesEquivalent(got.Time, want.Time) || got.SrcIP != want.SrcIP ||
			got.DstIP != want.DstIP || got.DstPort != want.DstPort ||
			got.Protocol != want.Protocol || got.Bytes != want.Bytes || got.Packets != want.Packets {
			t.Fatalf("record mismatch on %q:\nfast:  %+v\nnaive: %+v", line, got, want)
		}
	})
}

// FuzzParseIPv4 differentially fuzzes the in-place dotted-quad parser against
// netip.ParseAddr, the call it spares: an in-place accept must be a ParseAddr
// accept of the same address (so the fallback never changes a verdict), and
// every zone-less IPv4 address ParseAddr accepts must parse in place (so no
// address the proxy logs carry pays the fallback). The address front is then
// run on the input twice, cold and warm, and must agree with ParseAddr both
// times.
func FuzzParseIPv4(f *testing.F) {
	for _, seed := range []string{
		"10.1.2.3", "0.0.0.0", "255.255.255.255", "198.51.100.7",
		"01.2.3.4", "1.02.3.4", "1.2.3.00", "0.0.0.01", // leading zeros
		"256.1.1.1", "1.2.3.256", "1.2.3.999", "1.2.3.1000", // over 255
		"1.2.3", "1.2.3.4.5", "1", "", // field counts
		".1.2.3", "1..2.3", "1.2.3.", "...", // empty fields
		"::ffff:1.2.3.4", "::1", "ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255", // IPv6, IPv4-mapped
		"1.2.3.4%eth0", "fe80::1%eth0", "1.2.3.4 ", "+1.2.3.4", "1.2.3.-4", "a.b.c.d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := netip.ParseAddr(s)
		got, ok := parseIPv4([]byte(s))
		if ok && (err != nil || got != want) {
			t.Fatalf("parseIPv4(%q) = %v, netip.ParseAddr = %v, %v", s, got, want, err)
		}
		if !ok && err == nil && want.Is4() {
			t.Fatalf("parseIPv4(%q) refuses the IPv4 address netip.ParseAddr reads as %v", s, want)
		}
		var c addrCache
		for pass := 0; pass < 2; pass++ {
			a, cerr := c.parse([]byte(s))
			if (cerr == nil) != (err == nil) || a != want {
				t.Fatalf("pass %d: addrCache.parse(%q) = %v, %v; netip.ParseAddr = %v, %v", pass, s, a, cerr, want, err)
			}
		}
	})
}

// FuzzIsIPLiteral differentially fuzzes the allocation-avoiding IP-literal
// scan against the real parser it fronts: IsIPLiteral(s) must agree with
// netip.ParseAddr succeeding, for any input.
func FuzzIsIPLiteral(f *testing.F) {
	for _, seed := range []string{
		"93.184.216.34", "example.com", "::1", "fe80::1%eth0", "2001:db8::",
		"1.2.3.4.5", "999.1.1.1", "0x7f.0.0.1", "", ".", "1.2.3.4%zone",
		"256.256.256.256", "01.02.03.04", "a.b.c.d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, err := netip.ParseAddr(s)
		if got, want := IsIPLiteral(s), err == nil; got != want {
			t.Fatalf("IsIPLiteral(%q) = %v, netip.ParseAddr err = %v", s, got, err)
		}
	})
}
