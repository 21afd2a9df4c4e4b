package features

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/logs"
	"repro/internal/profile"
	"repro/internal/whois"
)

func day() time.Time { return time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC) }

// activity builds a DomainActivity via a snapshot so field invariants hold.
func activity(t *testing.T, domain string, ip string, visits []logs.Visit) *profile.DomainActivity {
	t.Helper()
	for i := range visits {
		visits[i].Domain = domain
		if ip != "" {
			visits[i].DestIP = netip.MustParseAddr(ip)
		}
	}
	s := profile.NewSnapshot(day(), visits, profile.NewHistory(), 100)
	da, ok := s.Rare[domain]
	if !ok {
		t.Fatalf("domain %s not rare in test snapshot", domain)
	}
	return da
}

func v(host string, at time.Duration, ua, ref string) logs.Visit {
	return logs.Visit{
		Time: day().Add(at), Host: host,
		UserAgent: ua, HasUA: ua != "",
		HasRef: ref != "",
	}
}

func newExtractor(reg *whois.Registry) *Extractor {
	hist := profile.NewHistory()
	for i := 0; i < 15; i++ {
		hist.UpdateUA(string(rune('a'+i)), "Common/1.0")
	}
	hist.UpdateUA("a", "Rare/1.0")
	return &Extractor{Hist: hist, Whois: reg}
}

func TestCCFeatures(t *testing.T) {
	reg := whois.NewRegistry()
	reg.Add(whois.Record{
		Domain:     "evil.ru",
		Registered: day().AddDate(0, 0, -30),
		Expires:    day().AddDate(0, 0, 335),
	})
	x := newExtractor(reg)

	da := activity(t, "evil.ru", "203.0.113.4", []logs.Visit{
		v("h1", time.Hour, "Rare/1.0", ""),
		v("h1", 2*time.Hour, "Rare/1.0", ""),
		v("h2", time.Hour, "Common/1.0", "http://r/"),
	})
	c := x.CC(da, 1, day())

	if c.NoHosts != 0.2 {
		t.Errorf("NoHosts = %v, want 0.2 (2 hosts)", c.NoHosts)
	}
	if c.AutoHosts != 0.1 {
		t.Errorf("AutoHosts = %v, want 0.1", c.AutoHosts)
	}
	if c.NoRef != 0.5 {
		t.Errorf("NoRef = %v, want 0.5 (h1 only)", c.NoRef)
	}
	if c.RareUA != 0.5 {
		t.Errorf("RareUA = %v, want 0.5 (h1 only)", c.RareUA)
	}
	if !c.HasWhois {
		t.Fatal("whois should resolve")
	}
	if math.Abs(c.DomAge-30.0/365) > 1e-9 {
		t.Errorf("DomAge = %v, want %v", c.DomAge, 30.0/365)
	}
	if math.Abs(c.DomValidity-335.0/365) > 1e-9 {
		t.Errorf("DomValidity = %v", c.DomValidity)
	}
}

func TestCCNoWhois(t *testing.T) {
	x := newExtractor(whois.NewRegistry()) // empty, no synthesis
	da := activity(t, "mystery.com", "203.0.113.4", []logs.Visit{v("h1", 0, "", "")})
	c := x.CC(da, 0, day())
	if c.HasWhois {
		t.Error("HasWhois should be false for unknown domain")
	}
	if c.RareUA != 1 {
		t.Errorf("UA-less host should be rare: %v", c.RareUA)
	}
	if c.NoRef != 1 {
		t.Errorf("referer-less host: NoRef = %v", c.NoRef)
	}
}

func TestCCVector(t *testing.T) {
	c := CC{NoHosts: 0.1, AutoHosts: 0.2, NoRef: 0.3, RareUA: 0.4, DomAge: 0.5, DomValidity: 0.6}
	with := c.Vector(true)
	without := c.Vector(false)
	if len(with) != 6 || len(without) != 5 {
		t.Fatalf("vector lengths: %d, %d", len(with), len(without))
	}
	if with[1] != 0.2 {
		t.Error("AutoHosts missing from full vector")
	}
	if without[1] != 0.3 {
		t.Error("AutoHosts not dropped from reduced vector")
	}
	if len(CCFeatureNames) != 6 {
		t.Error("feature names out of sync")
	}
}

func TestSquashCount(t *testing.T) {
	if squashCount(0) != 0 || squashCount(5) != 0.5 || squashCount(10) != 1 || squashCount(50) != 1 {
		t.Error("squashCount wrong")
	}
}

func TestYearsCapped(t *testing.T) {
	if yearsCapped(365) != 1 {
		t.Error("1 year")
	}
	if yearsCapped(365*20) != 10 {
		t.Error("cap at 10")
	}
	if yearsCapped(-365*5) != -1 {
		t.Error("floor at -1 (registered after detection)")
	}
}

func TestSimilarityTiming(t *testing.T) {
	x := newExtractor(nil)
	// Labeled malicious domain first visited by h1 at t=1h.
	mal := activity(t, "mal.ru", "198.51.100.10", []logs.Visit{v("h1", time.Hour, "", "")})
	labeled := []Labeled{LabeledFromActivity(mal)}

	// Candidate visited by h1 at exactly the same time: closeness 1.
	cand := activity(t, "cand.ru", "203.0.113.4", []logs.Visit{v("h1", time.Hour, "", "")})
	s := x.Similarity(cand, labeled, day())
	if s.DomInterval != 1 {
		t.Errorf("simultaneous closeness = %v, want 1", s.DomInterval)
	}

	// Candidate visited 160s later: closeness 1/2.
	cand2 := activity(t, "cand2.ru", "203.0.113.4", []logs.Visit{v("h1", time.Hour+CloseVisitWindow, "", "")})
	s2 := x.Similarity(cand2, labeled, day())
	if math.Abs(s2.DomInterval-0.5) > 1e-9 {
		t.Errorf("160s closeness = %v, want 0.5", s2.DomInterval)
	}

	// No shared host: closeness 0.
	cand3 := activity(t, "cand3.ru", "203.0.113.4", []logs.Visit{v("hX", time.Hour, "", "")})
	s3 := x.Similarity(cand3, labeled, day())
	if s3.DomInterval != 0 {
		t.Errorf("no shared host closeness = %v, want 0", s3.DomInterval)
	}
}

func TestSimilarityIPProximity(t *testing.T) {
	x := newExtractor(nil)
	mal := activity(t, "mal.ru", "198.51.100.10", []logs.Visit{v("h1", 0, "", "")})
	labeled := []Labeled{LabeledFromActivity(mal)}

	same24 := activity(t, "a.ru", "198.51.100.77", []logs.Visit{v("h2", 0, "", "")})
	s := x.Similarity(same24, labeled, day())
	if s.IP24 != 1 || s.IP16 != 1 {
		t.Errorf("/24 share: IP24=%v IP16=%v, want 1,1", s.IP24, s.IP16)
	}

	same16 := activity(t, "b.ru", "198.51.200.1", []logs.Visit{v("h2", 0, "", "")})
	s = x.Similarity(same16, labeled, day())
	if s.IP24 != 0 || s.IP16 != 1 {
		t.Errorf("/16 share: IP24=%v IP16=%v, want 0,1", s.IP24, s.IP16)
	}

	far := activity(t, "c.ru", "8.8.4.4", []logs.Visit{v("h2", 0, "", "")})
	s = x.Similarity(far, labeled, day())
	if s.IP24 != 0 || s.IP16 != 0 {
		t.Errorf("unrelated IP: IP24=%v IP16=%v", s.IP24, s.IP16)
	}
}

func TestSimilarityVector(t *testing.T) {
	s := Similarity{NoHosts: 1, DomInterval: 2, IP24: 3, IP16: 4, NoRef: 5, RareUA: 6, DomAge: 7, DomValidity: 8}
	with := s.Vector(true)
	without := s.Vector(false)
	if len(with) != 8 || len(without) != 7 {
		t.Fatalf("lengths %d, %d", len(with), len(without))
	}
	if with[3] != 4 {
		t.Error("IP16 missing")
	}
	if without[3] != 5 {
		t.Error("IP16 not dropped")
	}
	if len(SimilarityFeatureNames) != 8 {
		t.Error("names out of sync")
	}
}

func TestTimingClosenessMonotone(t *testing.T) {
	// Property: the DomInterval closeness strictly decreases as the
	// first-visit interval grows.
	x := newExtractor(nil)
	mal := activity(t, "mal.ru", "198.51.100.10", []logs.Visit{v("h1", time.Hour, "", "")})
	labeled := []Labeled{LabeledFromActivity(mal)}
	prev := 2.0
	for i, gap := range []time.Duration{0, 10 * time.Second, time.Minute, 10 * time.Minute, 3 * time.Hour} {
		cand := activity(t, fmt.Sprintf("c%d.ru", i), "203.0.113.4",
			[]logs.Visit{v("h1", time.Hour+gap, "", "")})
		s := x.Similarity(cand, labeled, day())
		if s.DomInterval >= prev {
			t.Errorf("closeness at gap %v = %v, not decreasing (prev %v)", gap, s.DomInterval, prev)
		}
		if s.DomInterval <= 0 || s.DomInterval > 1 {
			t.Errorf("closeness %v outside (0,1]", s.DomInterval)
		}
		prev = s.DomInterval
	}
}

func TestSimilarityBounded(t *testing.T) {
	f := func(nHosts uint8, gapSec uint16, sameSubnet bool) bool {
		x := newExtractor(nil)
		mal := activity(t, "mal.ru", "198.51.100.10", []logs.Visit{v("h1", time.Hour, "", "")})
		labeled := []Labeled{LabeledFromActivity(mal)}
		ip := "8.8.4.4"
		if sameSubnet {
			ip = "198.51.100.99"
		}
		visits := []logs.Visit{v("h1", time.Hour+time.Duration(gapSec)*time.Second, "", "")}
		for i := 0; i < int(nHosts%8); i++ {
			visits = append(visits, v(fmt.Sprintf("x%d", i), time.Hour, "", ""))
		}
		cand := activity(t, "cand.ru", ip, visits)
		s := x.Similarity(cand, labeled, day())
		return s.NoHosts >= 0 && s.NoHosts <= 1 &&
			s.DomInterval >= 0 && s.DomInterval <= 1 &&
			(s.IP24 == 0 || s.IP24 == 1) && (s.IP16 == 0 || s.IP16 == 1) &&
			s.IP16 >= s.IP24 && // /24 sharing implies /16 sharing
			s.NoRef >= 0 && s.NoRef <= 1 && s.RareUA >= 0 && s.RareUA <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLabeledFromActivity(t *testing.T) {
	mal := activity(t, "mal.ru", "198.51.100.10", []logs.Visit{
		v("h1", 2*time.Hour, "", ""),
		v("h1", time.Hour, "", ""),
		v("h2", 3*time.Hour, "", ""),
	})
	l := LabeledFromActivity(mal)
	if l.Domain != "mal.ru" {
		t.Errorf("domain = %q", l.Domain)
	}
	if !l.FirstVisit["h1"].Equal(day().Add(time.Hour)) {
		t.Errorf("h1 first visit = %v", l.FirstVisit["h1"])
	}
	if !l.FirstVisit["h2"].Equal(day().Add(3 * time.Hour)) {
		t.Errorf("h2 first visit = %v", l.FirstVisit["h2"])
	}
	if l.IP != netip.MustParseAddr("198.51.100.10") {
		t.Errorf("IP = %v", l.IP)
	}
}

// TestPaperConstants pins the feature constants taken from the paper: the
// 160 s timing-correlation scale (Figure 3) and the 10-host UA rarity
// threshold.
func TestPaperConstants(t *testing.T) {
	if CloseVisitWindow != 160*time.Second {
		t.Errorf("CloseVisitWindow = %v, want 160s", CloseVisitWindow)
	}
	if got := (&Extractor{}).uaThreshold(); got != 10 {
		t.Errorf("default UA rarity threshold = %d, want 10", got)
	}
}
