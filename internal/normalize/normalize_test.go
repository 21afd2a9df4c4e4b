package normalize

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/logs"
)

func TestReduceDNS(t *testing.T) {
	base := time.Date(2013, 3, 4, 10, 0, 0, 0, time.UTC)
	mk := func(q string, typ logs.RecordType, internal, server bool) logs.DNSRecord {
		return logs.DNSRecord{
			Time: base, SrcIP: netip.MustParseAddr("74.92.144.10"),
			Query: q, Type: typ,
			Answer: netip.MustParseAddr("198.51.100.1"), Internal: internal, Server: server,
		}
	}
	recs := []logs.DNSRecord{
		mk("a.b.example.c3", logs.TypeA, false, false),       // kept, folded
		mk("example2.c3", logs.TypeTXT, false, false),        // dropped: non-A
		mk("printer.lanl.internal", logs.TypeA, true, false), // dropped: internal
		mk("example3.c3", logs.TypeA, false, true),           // dropped: server
		mk("example4.c3", logs.TypeA, false, false),          // kept
	}
	visits, stats := ReduceDNS(recs)
	if stats.Records != 5 {
		t.Errorf("Records = %d", stats.Records)
	}
	if stats.DomainsAll != 5 {
		t.Errorf("DomainsAll = %d, want 5", stats.DomainsAll)
	}
	if stats.DomainsAfterInternal != 3 {
		t.Errorf("DomainsAfterInternal = %d, want 3", stats.DomainsAfterInternal)
	}
	if stats.DomainsAfterServers != 2 {
		t.Errorf("DomainsAfterServers = %d, want 2", stats.DomainsAfterServers)
	}
	if len(visits) != 2 || stats.Kept != 2 {
		t.Fatalf("kept %d visits", len(visits))
	}
	if visits[0].Domain != "b.example.c3" {
		t.Errorf("folded domain = %q, want third-level fold", visits[0].Domain)
	}
	if visits[0].Host != "74.92.144.10" {
		t.Errorf("host = %q (static IP identity)", visits[0].Host)
	}
	if visits[0].HasUA || visits[0].HasRef {
		t.Error("DNS visits carry no UA/referer")
	}
}

func TestReduceProxy(t *testing.T) {
	base := time.Date(2014, 2, 13, 9, 0, 0, 0, time.UTC)
	src := netip.MustParseAddr("10.0.0.5")
	leases := map[netip.Addr]string{src: "host0001"}
	mk := func(domain string, tz int, ua, ref string) logs.ProxyRecord {
		return logs.ProxyRecord{
			Time: base.Add(time.Duration(tz) * time.Hour), SrcIP: src,
			Domain: domain, DestIP: netip.MustParseAddr("203.0.113.8"),
			URL: "http://" + domain + "/", Method: "GET", Status: 200,
			UserAgent: ua, Referer: ref, TZOffset: tz,
		}
	}
	recs := []logs.ProxyRecord{
		mk("news.nbc.com", -5, "UA/1", "http://r/"),
		mk("198.51.100.44", 0, "UA/1", ""), // IP literal: dropped
		{ // unknown source: dropped
			Time: base, SrcIP: netip.MustParseAddr("10.9.9.9"),
			Domain: "x.com", Status: 200,
		},
		mk("plain.org", 8, "", ""),
	}
	visits, stats := ReduceProxy(recs, leases)
	if stats.DroppedIPLiteral != 1 || stats.DroppedUnresolved != 1 {
		t.Errorf("drops: %+v", stats)
	}
	if len(visits) != 2 {
		t.Fatalf("kept %d visits", len(visits))
	}
	if visits[0].Domain != "nbc.com" {
		t.Errorf("folded = %q, want nbc.com", visits[0].Domain)
	}
	if visits[0].Host != "host0001" {
		t.Errorf("host = %q", visits[0].Host)
	}
	// Timezone normalization: both records map back to the same UTC time.
	if !visits[0].Time.Equal(base) || !visits[1].Time.Equal(base) {
		t.Errorf("UTC conversion: %v, %v, want %v", visits[0].Time, visits[1].Time, base)
	}
	if !visits[0].HasUA || !visits[0].HasRef {
		t.Error("first visit has UA and referer")
	}
	if visits[1].HasUA || visits[1].HasRef {
		t.Error("second visit has neither UA nor referer")
	}
	if stats.DomainsAll != 3 { // nbc.com, x.com is dropped before fold? x.com counted? unresolved happens after fold
		t.Errorf("DomainsAll = %d", stats.DomainsAll)
	}
}

func TestReduceDNSOnGenerated(t *testing.T) {
	g := gen.NewLANL(gen.LANLConfig{
		Seed: 3, Hosts: 30, Servers: 3, PopularDomains: 40,
		NewRarePerDay: 8, QueriesPerHostDay: 20,
	})
	recs := g.Day(0)
	visits, stats := ReduceDNS(recs)
	if stats.DomainsAll <= stats.DomainsAfterInternal ||
		stats.DomainsAfterInternal < stats.DomainsAfterServers {
		t.Errorf("reduction steps must be monotone: %+v", stats)
	}
	if len(visits) == 0 {
		t.Fatal("no visits survived")
	}
	for _, v := range visits {
		if v.Domain == "" || v.Host == "" {
			t.Fatalf("bad visit %+v", v)
		}
	}
}

func TestReduceProxyOnGenerated(t *testing.T) {
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 4, TrainingDays: 2, OperationDays: 2,
		Hosts: 20, PopularDomains: 30, NewRarePerDay: 5, Campaigns: 2,
	})
	day := 0
	visits, stats := ReduceProxy(e.Day(day), e.DHCPMap(day))
	if stats.DroppedUnresolved != 0 {
		t.Errorf("all generated sources must resolve: %+v", stats)
	}
	if len(visits) == 0 {
		t.Fatal("no visits")
	}
	// All visits on day 0 must fall inside day 0 UTC after normalization.
	lo := e.DayTime(0)
	hi := e.DayTime(1)
	for _, v := range visits {
		if v.Time.Before(lo) || !v.Time.Before(hi) {
			t.Fatalf("visit at %v outside day [%v, %v)", v.Time, lo, hi)
		}
		if v.Host == "" {
			t.Fatal("unresolved host in visit")
		}
	}
}

// TestProxyReducerMemoIsInvisible holds the reducer's last-domain memo to a
// fresh reducer per record over a sequence built to hit every transition:
// repeated names, a different name with the same fold, IP literals before
// and after names, empty domains, and lease hits and misses in between.
func TestProxyReducerMemoIsInvisible(t *testing.T) {
	leased := netip.MustParseAddr("10.0.0.1")
	leases := map[netip.Addr]string{leased: "laptop-1"}
	domains := []string{"www.nbc.com", "www.nbc.com", "news.nbc.com", "203.0.113.9", "203.0.113.9", "NBC.com.",
		"", "", "2001:db8::1", "a.b.example.org", "203.0.113.9", "a.b.example.org"}
	var memo ProxyReducer
	for i, d := range domains {
		for _, r := range []logs.ProxyRecord{
			{Domain: d, Host: "named"},
			{Domain: d, SrcIP: leased},
			{Domain: d, SrcIP: netip.MustParseAddr("10.0.0.2")},
		} {
			var fresh ProxyReducer
			h1, f1, o1 := memo.Key(&r, leases)
			h2, f2, o2 := fresh.Key(&r, leases)
			if h1 != h2 || f1 != f2 || o1 != o2 {
				t.Fatalf("record %d (%q): memoised (%q, %q, %v), fresh (%q, %q, %v)", i, d, h1, f1, o1, h2, f2, o2)
			}
			if wantIP := logs.IsIPLiteral(d); (o1 == ProxyDroppedIPLiteral) != wantIP {
				t.Fatalf("record %d (%q): outcome %v, IsIPLiteral %v", i, d, o1, wantIP)
			}
			if o1 != ProxyDroppedIPLiteral && f1 != logs.FoldSecondLevel(d) {
				t.Fatalf("record %d (%q): folded %q, want %q", i, d, f1, logs.FoldSecondLevel(d))
			}
		}
	}
}
