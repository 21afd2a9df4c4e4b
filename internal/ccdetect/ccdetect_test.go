package ccdetect

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/histogram"
	"repro/internal/logs"
	"repro/internal/profile"
	"repro/internal/whois"
)

var day = time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)

func beaconVisits(host, domain string, ip string, start time.Time, period time.Duration, n int, ua string) []logs.Visit {
	out := make([]logs.Visit, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, logs.Visit{
			Time: start.Add(time.Duration(i) * period), Host: host, Domain: domain,
			DestIP:    netip.MustParseAddr(ip),
			UserAgent: ua, HasUA: ua != "",
		})
	}
	return out
}

func humanVisits(rng *rand.Rand, host, domain, ip string, start time.Time, n int) []logs.Visit {
	out := make([]logs.Visit, 0, n)
	t := start
	for i := 0; i < n; i++ {
		out = append(out, logs.Visit{
			Time: t, Host: host, Domain: domain,
			DestIP:    netip.MustParseAddr(ip),
			UserAgent: "Common/1.0", HasUA: true,
			HasRef: true,
		})
		t = t.Add(time.Duration(10+rng.Intn(3000)) * time.Second)
	}
	return out
}

func testExtractor(reg *whois.Registry) *features.Extractor {
	hist := profile.NewHistory()
	for i := 0; i < 20; i++ {
		hist.UpdateUA(string(rune('a'+i)), "Common/1.0")
	}
	return &features.Extractor{Hist: hist, Whois: reg}
}

func TestFindAutomated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var visits []logs.Visit
	visits = append(visits, beaconVisits("h1", "beacon.ru", "203.0.113.9", day.Add(9*time.Hour), 10*time.Minute, 30, "Implant/1")...)
	visits = append(visits, humanVisits(rng, "h2", "human.com", "203.0.113.10", day.Add(9*time.Hour), 30)...)
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)

	d := NewDetector(testExtractor(nil))
	ads := d.FindAutomatedParallel(s, 1)
	if len(ads) != 1 {
		t.Fatalf("automated domains = %d, want 1", len(ads))
	}
	if ads[0].Domain != "beacon.ru" {
		t.Errorf("automated = %s", ads[0].Domain)
	}
	if len(ads[0].AutoHosts) != 1 || ads[0].AutoHosts[0] != "h1" {
		t.Errorf("auto hosts = %v", ads[0].AutoHosts)
	}
	if ads[0].Period() != 600 {
		t.Errorf("period = %v, want 600", ads[0].Period())
	}
}

func TestFillFeaturesWhoisDefaults(t *testing.T) {
	reg := whois.NewRegistry()
	reg.Add(whois.Record{
		Domain:     "known.ru",
		Registered: day.AddDate(0, 0, -73),
		Expires:    day.AddDate(0, 0, 73),
	})
	x := testExtractor(reg)
	d := NewDetector(x)

	var visits []logs.Visit
	visits = append(visits, beaconVisits("h1", "known.ru", "203.0.113.9", day.Add(9*time.Hour), 5*time.Minute, 20, "")...)
	visits = append(visits, beaconVisits("h2", "unknown.ru", "203.0.113.10", day.Add(9*time.Hour), 5*time.Minute, 20, "")...)
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)

	ads := d.FindAutomatedParallel(s, 1)
	if len(ads) != 2 {
		t.Fatalf("automated = %d", len(ads))
	}
	d.FillFeaturesParallel(ads, day, 1)
	var known, unknown *AutomatedDomain
	for _, ad := range ads {
		if ad.Domain == "known.ru" {
			known = ad
		} else {
			unknown = ad
		}
	}
	if !known.Features.HasWhois || unknown.Features.HasWhois {
		t.Fatalf("whois flags wrong: known=%v unknown=%v", known.Features.HasWhois, unknown.Features.HasWhois)
	}
	// The unparseable domain inherits the batch average (here: the only
	// parseable one).
	if unknown.Features.DomAge != known.Features.DomAge {
		t.Errorf("default DomAge = %v, want %v", unknown.Features.DomAge, known.Features.DomAge)
	}
	if unknown.Features.DomValidity != known.Features.DomValidity {
		t.Errorf("default DomValidity = %v", unknown.Features.DomValidity)
	}
}

func TestTrainAndDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDetector(testExtractor(nil))

	// Synthetic training set: reported domains have high RareUA/NoRef and
	// low age; legitimate ones the opposite.
	var examples []TrainingExample
	for i := 0; i < 120; i++ {
		reported := i%2 == 0
		f := features.CC{HasWhois: true}
		if reported {
			f.NoHosts = 0.1 + 0.1*rng.Float64()
			f.NoRef = 0.8 + 0.2*rng.Float64()
			f.RareUA = 0.7 + 0.3*rng.Float64()
			f.DomAge = 0.1 * rng.Float64()
			f.DomValidity = 0.5 * rng.Float64()
		} else {
			f.NoHosts = 0.1
			f.NoRef = 0.4 * rng.Float64()
			f.RareUA = 0.2 * rng.Float64()
			f.DomAge = 2 + 5*rng.Float64()
			f.DomValidity = 1 + 3*rng.Float64()
		}
		examples = append(examples, TrainingExample{Features: f, Reported: reported})
	}
	m, err := d.Train(examples)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.3 {
		t.Errorf("R2 = %v, separable training set should fit", m.R2)
	}

	// DomAge must be negatively correlated with "reported" (§VI-A).
	// Feature order without AutoHosts: NoHosts, NoRef, RareUA, DomAge, DomValidity.
	if m.Coef[3] >= 0 {
		t.Errorf("DomAge coefficient = %v, want negative", m.Coef[3])
	}

	// Score a malicious-looking automated domain above a benign one.
	malFeat := features.CC{NoHosts: 0.2, NoRef: 1, RareUA: 1, DomAge: 0.05, DomValidity: 0.3, HasWhois: true}
	benFeat := features.CC{NoHosts: 0.1, NoRef: 0.1, RareUA: 0, DomAge: 5, DomValidity: 2, HasWhois: true}
	mal := &AutomatedDomain{Features: malFeat}
	ben := &AutomatedDomain{Features: benFeat}
	if d.Score(mal) <= d.Score(ben) {
		t.Errorf("malicious score %v <= benign score %v", mal.Score, ben.Score)
	}
	if d.Score(mal) < d.Threshold {
		t.Errorf("malicious score %v under threshold %v", mal.Score, d.Threshold)
	}
}

func TestTrainErrors(t *testing.T) {
	d := NewDetector(testExtractor(nil))
	if _, err := d.Train(nil); err == nil {
		t.Error("empty training must fail")
	}
}

func TestScoreWithoutModel(t *testing.T) {
	d := NewDetector(testExtractor(nil))
	if d.Score(&AutomatedDomain{}) != 0 {
		t.Error("unmodeled score must be 0")
	}
}

func TestFindAutomatedParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var visits []logs.Visit
	for i := 0; i < 40; i++ {
		domain := "dom" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".ru"
		ip := "203.0.113.9"
		if i%3 == 0 {
			visits = append(visits, beaconVisits("h1", domain, ip, day.Add(9*time.Hour), 5*time.Minute, 20, "")...)
		} else {
			visits = append(visits, humanVisits(rng, "h2", domain, ip, day.Add(9*time.Hour), 10)...)
		}
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	d := NewDetector(testExtractor(nil))

	seq := d.FindAutomatedParallel(s, 1)
	for _, workers := range []int{0, 1, 2, 7, 100} {
		par := d.FindAutomatedParallel(s, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d vs %d automated domains", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Domain != seq[i].Domain {
				t.Errorf("workers=%d: order differs at %d: %s vs %s", workers, i, par[i].Domain, seq[i].Domain)
			}
			if len(par[i].AutoHosts) != len(seq[i].AutoHosts) {
				t.Errorf("workers=%d: %s auto hosts differ", workers, par[i].Domain)
			}
		}
	}
}

func TestLANLDetectorSynchronizedHosts(t *testing.T) {
	var visits []logs.Visit
	start := day.Add(10 * time.Hour)
	// Two hosts beaconing in sync (3s skew).
	visits = append(visits, beaconVisits("h1", "cc.c3", "191.146.166.145", start, 10*time.Minute, 25, "")...)
	visits = append(visits, beaconVisits("h2", "cc.c3", "191.146.166.145", start.Add(3*time.Second), 10*time.Minute, 25, "")...)
	// One host beaconing alone.
	visits = append(visits, beaconVisits("h3", "solo.c3", "203.0.113.3", start, 10*time.Minute, 25, "")...)
	// Two hosts, same period, opposite phase: must NOT fire.
	visits = append(visits, beaconVisits("h4", "phase.c3", "203.0.113.4", start, 10*time.Minute, 25, "")...)
	visits = append(visits, beaconVisits("h5", "phase.c3", "203.0.113.4", start.Add(5*time.Minute), 10*time.Minute, 25, "")...)

	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	d := NewLANLDetector()
	cc := d.FindCCParallel(s, 1)
	if len(cc) != 1 || cc[0].Domain != "cc.c3" {
		var names []string
		for _, ad := range cc {
			names = append(names, ad.Domain)
		}
		t.Errorf("FindCCParallel = %v, want [cc.c3]", names)
	}
	if d.IsCC(s.Rare["solo.c3"], day) {
		t.Error("single-host domain fired the two-host heuristic")
	}
	if d.IsCC(s.Rare["phase.c3"], day) {
		t.Error("out-of-phase hosts fired the alignment check")
	}
}

// TestPaperParameters pins the detectors' paper parameters: Tc = 0.40 with
// the AutoHosts feature dropped (§VI-C), the W = 10 s, JT = 0.06 histogram
// (Table II), and the §V-B heuristic's 10 s window and 3 aligned pairs.
func TestPaperParameters(t *testing.T) {
	d := NewDetector(testExtractor(nil))
	if d.Threshold != 0.4 || d.WithAutoHosts || d.Hist != histogram.DefaultConfig() {
		t.Errorf("NewDetector = Tc %v, WithAutoHosts %v, Hist %+v; want 0.4, false, the default histogram",
			d.Threshold, d.WithAutoHosts, d.Hist)
	}
	l := NewLANLDetector()
	if l.SyncWindow != 10*time.Second || l.MinMatches != 3 || l.Hist != histogram.DefaultConfig() {
		t.Errorf("NewLANLDetector = window %v, matches %d, Hist %+v; want 10s, 3, the default histogram",
			l.SyncWindow, l.MinMatches, l.Hist)
	}
}

// TestLANLDetectorWindowAndMatches: the §V-B heuristic fires when two
// automated hosts line up within 10 s (inclusive) on at least 3 connections.
func TestLANLDetectorWindowAndMatches(t *testing.T) {
	start := day.Add(10 * time.Hour)
	const period = 10 * time.Minute
	var visits []logs.Visit
	for _, c := range []struct {
		domain string
		skew   time.Duration // h2's offset from h1
		n2     int           // h2's connections
	}{
		{"skew10.c3", 10 * time.Second, 25},
		{"skew11.c3", 11 * time.Second, 25},
		{"three.c3", 22 * period, 6}, // lines up with h1's last 3 connections
		{"two.c3", 23 * period, 6},   // lines up with h1's last 2
	} {
		visits = append(visits, beaconVisits("h1", c.domain, "203.0.113.5", start, period, 25, "")...)
		visits = append(visits, beaconVisits("h2", c.domain, "203.0.113.5", start.Add(c.skew), period, c.n2, "")...)
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	if got := len(NewDetector(testExtractor(nil)).FindAutomatedParallel(s, 1)); got != 4 {
		t.Fatalf("fixture: %d automated domains, want 4", got)
	}
	var names []string
	for _, ad := range NewLANLDetector().FindCCParallel(s, 1) {
		names = append(names, ad.Domain)
	}
	if fmt.Sprint(names) != "[skew10.c3 three.c3]" {
		t.Errorf("FindCCParallel = %v, want [skew10.c3 three.c3]", names)
	}
}

func TestCountAligned(t *testing.T) {
	base := day
	mk := func(offsets ...int) []time.Time {
		out := make([]time.Time, len(offsets))
		for i, o := range offsets {
			out[i] = base.Add(time.Duration(o) * time.Second)
		}
		return out
	}
	if got := countAligned(mk(0, 100, 200), mk(5, 105, 500), 10*time.Second); got != 2 {
		t.Errorf("aligned = %d, want 2", got)
	}
	if got := countAligned(mk(0, 100), mk(50, 150), 10*time.Second); got != 0 {
		t.Errorf("aligned = %d, want 0", got)
	}
	if got := countAligned(nil, mk(1), time.Second); got != 0 {
		t.Errorf("aligned = %d, want 0", got)
	}
}

func TestDetectCCEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reg := whois.NewRegistry()
	reg.SetSynthesize(day, 0)
	reg.Add(whois.Record{
		Domain:     "evil.ru",
		Registered: day.AddDate(0, 0, -15),
		Expires:    day.AddDate(0, 0, 60),
	})
	x := testExtractor(reg)
	d := NewDetector(x)

	// Train on synthetic separable features.
	var examples []TrainingExample
	for i := 0; i < 100; i++ {
		reported := i%2 == 0
		f := features.CC{HasWhois: true, NoHosts: 0.1 + 0.1*rng.Float64()}
		if reported {
			f.NoRef, f.RareUA, f.DomAge, f.DomValidity = 1, 1, 0.05, 0.2+0.1*rng.Float64()
		} else {
			f.NoRef, f.RareUA = 0.2*rng.Float64(), 0.1*rng.Float64()
			f.DomAge, f.DomValidity = 3+rng.Float64(), 2+rng.Float64()
		}
		examples = append(examples, TrainingExample{Features: f, Reported: reported})
	}
	if _, err := d.Train(examples); err != nil {
		t.Fatal(err)
	}

	var visits []logs.Visit
	// Malicious beacon: rare implant UA, no referer, young domain.
	visits = append(visits, beaconVisits("h1", "evil.ru", "203.0.113.66", day.Add(9*time.Hour), 5*time.Minute, 40, "Implant/0.1")...)
	// Benign automated poller: common UA, old domain (synthesized whois).
	ben := beaconVisits("h2", "updates.com", "203.0.113.67", day.Add(9*time.Hour), 5*time.Minute, 40, "Common/1.0")
	for i := range ben {
		ben[i].HasRef = true
	}
	visits = append(visits, ben...)

	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	ads := d.FindAutomatedParallel(s, 1)
	d.FillFeaturesParallel(ads, s.Day, 1)
	var cc []*AutomatedDomain
	for _, ad := range ads {
		if d.Score(ad) >= d.Threshold {
			cc = append(cc, ad)
		}
	}
	if len(cc) != 1 || cc[0].Domain != "evil.ru" {
		var names []string
		for _, ad := range cc {
			names = append(names, ad.Domain)
		}
		t.Fatalf("C&C = %v, want [evil.ru]", names)
	}
	if !d.IsCC(s.Rare["evil.ru"], day) {
		t.Error("IsCC should agree with the scored C&C list")
	}
	if d.IsCC(s.Rare["updates.com"], day) {
		t.Error("benign poller flagged as C&C")
	}
}

// TestAnalyzeActivityAllocs pins what the detector spends on the rare
// domains a day discards: a domain whose hosts are all below MinConnections
// costs no allocation at all, and a survivor's Verdicts still hold every
// contacting host — automated or not, and past the stack array's sixteen.
func TestAnalyzeActivityAllocs(t *testing.T) {
	cfg := NewDetector(testExtractor(nil)).Hist
	var visits []logs.Visit
	for _, h := range []string{"h1", "h2", "h3"} {
		visits = append(visits, beaconVisits(h, "short.com", "203.0.113.11", day.Add(9*time.Hour), time.Minute, cfg.MinConnections-1, "")...)
	}
	for i := 0; i < 20; i++ {
		visits = append(visits, beaconVisits(string(rune('a'+i)), "wide.ru", "203.0.113.12", day.Add(8*time.Hour), 5*time.Minute, 1+i%2*29, "")...)
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 32)

	short := s.Rare["short.com"]
	if short == nil || len(short.Hosts) != 3 {
		t.Fatalf("fixture: short.com = %+v, want a rare domain with 3 hosts", short)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if analyzeActivity(short, cfg) != nil {
			t.Fatal("a domain with no host at MinConnections came out automated")
		}
	}); allocs != 0 {
		t.Errorf("analyzeActivity allocates %.0f times for a discarded domain, want 0", allocs)
	}

	ad := analyzeActivity(s.Rare["wide.ru"], cfg)
	if ad == nil || len(ad.Verdicts) != 20 || len(ad.AutoHosts) != 10 {
		t.Fatalf("wide.ru = %+v, want 20 verdicts of which 10 automated", ad)
	}
	for i, h := range ad.AutoHosts {
		if want := string(rune('a' + 2*i + 1)); h != want {
			t.Errorf("AutoHosts[%d] = %q, want %q in sorted order", i, h, want)
		}
	}
	for i, v := range ad.Verdicts {
		if host := ad.Activity.Hosts[i].Host; v.Automated != ((host[0]-'a')%2 == 1) {
			t.Errorf("Verdicts[%d] (host %q) automated = %v", i, host, v.Automated)
		}
	}
}
