package profile

import (
	"net/netip"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/logs"
)

func day(d int) time.Time { return time.Date(2014, 2, d, 0, 0, 0, 0, time.UTC) }

func visit(h, d string, t time.Time, ua, ref string) logs.Visit {
	return logs.Visit{
		Time: t, Host: h, Domain: d,
		UserAgent: ua, HasUA: ua != "",
		HasRef: ref != "",
		DestIP: netip.MustParseAddr("198.51.100.9"),
	}
}

func TestHistoryDomains(t *testing.T) {
	h := NewHistory()
	if h.SeenDomain("a.com") {
		t.Error("empty history should not know a.com")
	}
	h.UpdateDomains(day(1), []string{"a.com", "b.com"})
	if !h.SeenDomain("a.com") || !h.SeenDomain("b.com") {
		t.Error("history should know updated domains")
	}
	first, ok := h.FirstSeen("a.com")
	if !ok || !first.Equal(day(1)) {
		t.Errorf("FirstSeen = %v, %v", first, ok)
	}
	// First-seen day must not be overwritten.
	h.UpdateDomains(day(2), []string{"a.com"})
	first, _ = h.FirstSeen("a.com")
	if !first.Equal(day(1)) {
		t.Error("FirstSeen overwritten on re-update")
	}
	if h.Days() != 2 || h.DomainCount() != 2 {
		t.Errorf("Days=%d DomainCount=%d", h.Days(), h.DomainCount())
	}
}

func TestHistoryUA(t *testing.T) {
	h := NewHistory()
	for i := 0; i < 12; i++ {
		h.UpdateUA(string(rune('a'+i)), "CommonBrowser/1.0")
	}
	h.UpdateUA("a", "WeirdImplant/0.1")
	h.UpdateUA("a", "") // empty UA must be ignored in the history

	if h.RareUA("CommonBrowser/1.0", 10) {
		t.Error("12-host UA should not be rare at threshold 10")
	}
	if !h.RareUA("WeirdImplant/0.1", 10) {
		t.Error("1-host UA should be rare")
	}
	if !h.RareUA("NeverSeen/9", 10) {
		t.Error("unknown UA should be rare")
	}
	if !h.RareUA("", 10) {
		t.Error("missing UA is always rare (§IV-C)")
	}
	if h.UAHostCount("CommonBrowser/1.0") != 12 {
		t.Errorf("UAHostCount = %d", h.UAHostCount("CommonBrowser/1.0"))
	}
	if h.UACount() != 2 {
		t.Errorf("UACount = %d, want 2", h.UACount())
	}
}

func TestSnapshotRareExtraction(t *testing.T) {
	hist := NewHistory()
	hist.UpdateDomains(day(1), []string{"known.com"})

	base := day(2).Add(9 * time.Hour)
	var visits []logs.Visit
	// known.com: in history -> not rare even with 1 host.
	visits = append(visits, visit("h1", "known.com", base, "ua", "r"))
	// fresh.com: new, 2 hosts -> rare.
	visits = append(visits, visit("h1", "fresh.com", base.Add(time.Minute), "ua", ""))
	visits = append(visits, visit("h2", "fresh.com", base.Add(2*time.Minute), "ua", "r"))
	// popular-new.com: new but contacted by 10 hosts -> not rare.
	for i := 0; i < 10; i++ {
		visits = append(visits, visit(string(rune('a'+i)), "popular-new.com", base, "ua", "r"))
	}

	s := NewSnapshot(day(2), visits, hist, 10)
	if s.AllDomains != 3 {
		t.Errorf("AllDomains = %d, want 3", s.AllDomains)
	}
	if s.NewDomains != 2 {
		t.Errorf("NewDomains = %d, want 2", s.NewDomains)
	}
	if s.RareCount() != 1 {
		t.Fatalf("RareCount = %d, want 1 (%v)", s.RareCount(), rareNames(s))
	}
	da, ok := s.Rare["fresh.com"]
	if !ok {
		t.Fatal("fresh.com should be rare")
	}
	if da.NumHosts() != 2 {
		t.Errorf("fresh.com hosts = %d, want 2", da.NumHosts())
	}
	if got := da.HostNames(); len(got) != 2 || got[0] != "h1" || got[1] != "h2" {
		t.Errorf("HostNames = %v", got)
	}
	if len(s.HostRare("h1")) != 1 || s.HostRare("h1")[0] != "fresh.com" {
		t.Errorf("HostRare[h1] = %v", s.HostRare("h1"))
	}
}

func TestSnapshotHostActivity(t *testing.T) {
	hist := NewHistory()
	base := day(2)
	visits := []logs.Visit{
		visit("h1", "d.com", base.Add(3*time.Hour), "uaA", ""),
		visit("h1", "d.com", base.Add(1*time.Hour), "uaB", ""),
		visit("h1", "d.com", base.Add(2*time.Hour), "uaA", "ref"),
	}
	s := NewSnapshot(day(2), visits, hist, 10)
	if s.Rare["d.com"].Host("h0") != nil {
		t.Error("Host found a host that never contacted the domain")
	}
	ha := s.Rare["d.com"].Host("h1")
	if len(ha.Times) != 3 {
		t.Fatalf("times = %v", ha.Times)
	}
	if !ha.Times[0].Before(ha.Times[1]) || !ha.Times[1].Before(ha.Times[2]) {
		t.Error("times not sorted")
	}
	if !ha.First().Equal(base.Add(1 * time.Hour)) {
		t.Errorf("First = %v", ha.First())
	}
	if ha.NoRefVisits != 2 {
		t.Errorf("NoRefVisits = %d, want 2", ha.NoRefVisits)
	}
	if ha.UsesNoReferer() {
		t.Error("host sent one referer, UsesNoReferer must be false")
	}
	if !slices.Equal(ha.UAs, []string{"uaA", "uaB"}) {
		t.Errorf("UAs = %v", ha.UAs)
	}
}

// TestSnapshotNoUAVisit: a visit without a UA, a referer or a URL — the shape
// of every DNS visit — records the empty UA marker, no referer, and no path.
func TestSnapshotNoUAVisit(t *testing.T) {
	hist := NewHistory()
	visits := []logs.Visit{visit("h1", "d.com", day(2), "", "")}
	s := NewSnapshot(day(2), visits, hist, 10)
	da := s.Rare["d.com"]
	ha := da.Host("h1")
	if !slices.Equal(ha.UAs, []string{""}) {
		t.Errorf("UAs = %q, want only the empty UA marker", ha.UAs)
	}
	if !ha.UsesNoReferer() {
		t.Error("referer-less host should report UsesNoReferer")
	}
	if p := da.Paths(); len(p) != 0 {
		t.Errorf("URL-less visit retained paths %q", p)
	}
}

// TestKeptPathOwnsItsBytes: a decoded URL is carved from its decoder's text
// block, and the path set lives for the rest of the day, so the path the
// builder keeps must be a copy — a substring of the URL would keep the whole
// block reachable.
func TestKeptPathOwnsItsBytes(t *testing.T) {
	rec := logs.ProxyRecord{Time: day(2), Host: "h1", SrcIP: netip.MustParseAddr("10.0.0.1"),
		Domain: "d.com", URL: "http://d.com/beacon.gif?id=7", Method: "GET", Status: 200}
	line := logs.AppendProxy(nil, rec)
	got, err := logs.NewProxyDecoder().ParseProxyRecord(line[:len(line)-1]) // without the newline
	if err != nil {
		t.Fatal(err)
	}
	v := logs.Visit{Time: got.Time, Host: got.Host, Domain: got.Domain, URL: got.URL}
	b := NewIncrementalBuilder()
	b.Add(1, &v)
	paths := NewSnapshot(day(2), []logs.Visit{v}, NewHistory(), 10).Rare["d.com"].Paths()
	for _, kept := range append(paths, b.perDomain["d.com"].paths[0].path) {
		if kept != "/beacon.gif?" {
			t.Fatalf("kept path %q, want /beacon.gif?", kept)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(got.URL)))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(kept))); p >= lo && p < lo+uintptr(len(got.URL)) {
			t.Fatalf("kept path %q points into the decoded URL %q", kept, got.URL)
		}
	}
}

func TestURLPath(t *testing.T) {
	for _, c := range []struct{ url, want string }{
		{"", ""}, // no URL (DNS data): no path, not "/"
		{"http://example.org/logo.gif?id=7", "/logo.gif?"},
		{"https://example.org/a/b#frag", "/a/b"},
		{"http://example.org", "/"},
		{"http://example.org?q", "/"},
		{"/relative/path", ""},
	} {
		if got := urlPath(c.url); got != c.want {
			t.Errorf("urlPath(%q) = %q, want %q", c.url, got, c.want)
		}
	}
}

func TestSnapshotCommit(t *testing.T) {
	hist := NewHistory()
	visits := []logs.Visit{
		visit("h1", "d.com", day(2), "AgentX/1", ""),
		visit("h2", "e.com", day(2), "AgentX/1", ""),
	}
	s := NewSnapshot(day(2), visits, hist, 10)
	if s.RareCount() != 2 {
		t.Fatalf("RareCount = %d", s.RareCount())
	}
	s.Commit(hist)
	if !hist.SeenDomain("d.com") || !hist.SeenDomain("e.com") {
		t.Error("Commit must add today's domains to the history")
	}
	if hist.UAHostCount("AgentX/1") != 2 {
		t.Errorf("UAHostCount = %d, want 2", hist.UAHostCount("AgentX/1"))
	}

	// The same domains tomorrow are no longer new.
	s2 := NewSnapshot(day(3), visits, hist, 10)
	if s2.RareCount() != 0 {
		t.Errorf("day-2 rare count = %d, want 0", s2.RareCount())
	}
	if s2.NewDomains != 0 {
		t.Errorf("NewDomains = %d, want 0", s2.NewDomains)
	}
}

func TestSnapshotEmptyDay(t *testing.T) {
	hist := NewHistory()
	s := NewSnapshot(day(2), nil, hist, 10)
	if s.RareCount() != 0 || s.AllDomains != 0 || s.NewDomains != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	s.Commit(hist)
	if hist.DomainCount() != 0 {
		t.Error("empty commit should not add domains")
	}
}
