package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/profile"
	"repro/internal/scoring"
)

var day = time.Date(2013, 3, 19, 0, 0, 0, 0, time.UTC)

// buildCampaignSnapshot hand-builds a day resembling Figure 4: two
// compromised hosts beaconing to a C&C domain in sync, delivery domains
// visited close in time and co-located in IP space, plus benign rare noise.
func buildCampaignSnapshot() *profile.Snapshot {
	var visits []logs.Visit
	add := func(host, domain, ip string, t time.Time) {
		visits = append(visits, logs.Visit{
			Time: t, Host: host, Domain: domain,
			DestIP: netip.MustParseAddr(ip),
		})
	}

	infection := day.Add(10 * time.Hour)

	// C&C beacon: both hosts every 10 minutes, within 3s of each other.
	for i := 0; i < 30; i++ {
		t := infection.Add(time.Duration(i) * 10 * time.Minute)
		add("hostA", "rainbow.c3", "191.146.166.145", t)
		add("hostB", "rainbow.c3", "191.146.166.145", t.Add(3*time.Second))
	}

	// Delivery domains visited by hostA right at infection, same /24.
	add("hostA", "fluttershy.c3", "191.146.166.31", infection.Add(-2*time.Minute))
	add("hostA", "pinkiepie.c3", "191.146.166.99", infection.Add(-90*time.Second))
	// One delivery domain in the same /16 only, visited by hostB.
	add("hostB", "applejack.c3", "191.146.224.111", infection.Add(-1*time.Minute))

	// Benign rare noise: single-host, single-visit domains far away in
	// time and IP space.
	for i := 0; i < 20; i++ {
		add("hostC", "benign"+string(rune('a'+i))+".c3", "8.8.4.4",
			day.Add(time.Duration(2+i)*time.Hour))
	}
	// A benign rare domain visited by hostA long before infection: must
	// not be pulled in.
	add("hostA", "newsblog.c3", "9.9.9.9", day.Add(1*time.Hour))

	return profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
}

func lanlStack() (CCDetector, SimilarityScorer) {
	return ccdetect.NewLANLDetector(), scoring.AdditiveScorer{}
}

func TestBeliefPropagationFromHintHost(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold, MaxIterations: 8})

	got := map[string]bool{}
	for _, d := range res.Detections {
		got[d.Domain] = true
	}
	for _, want := range []string{"rainbow.c3", "fluttershy.c3", "pinkiepie.c3", "applejack.c3"} {
		if !got[want] {
			t.Errorf("missing detection %s (got %v)", want, res.Domains())
		}
	}
	if got["newsblog.c3"] {
		t.Error("benign newsblog.c3 was labeled malicious")
	}
	for _, d := range res.Detections {
		if d.Domain[:6] == "benign" {
			t.Errorf("benign noise %s labeled", d.Domain)
		}
	}

	// hostB must be discovered as newly compromised.
	foundB := false
	for _, h := range res.NewHosts {
		if h == "hostB" {
			foundB = true
		}
		if h == "hostC" {
			t.Error("clean hostC marked compromised")
		}
	}
	if !foundB {
		t.Errorf("hostB not discovered: NewHosts=%v", res.NewHosts)
	}
}

func TestBeliefPropagationCCFirst(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})

	if len(res.Detections) == 0 {
		t.Fatal("no detections")
	}
	first := res.Detections[0]
	if first.Domain != "rainbow.c3" || first.Reason != ReasonCC {
		t.Errorf("first detection = %+v, want C&C rainbow.c3", first)
	}
	// Similarity detections must carry scores above the threshold.
	for _, d := range res.Detections[1:] {
		if d.Reason == ReasonSimilarity && d.Score < scoring.AdditiveThreshold {
			t.Errorf("similarity detection %s below threshold: %v", d.Domain, d.Score)
		}
	}
}

func TestBeliefPropagationSeedDomains(t *testing.T) {
	// No-hint style: seed with the C&C domain, no seed hosts.
	s := buildCampaignSnapshot()
	_, sim := lanlStack()
	res := BeliefPropagation(s, nil, []string{"rainbow.c3"}, nil, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})

	got := map[string]bool{}
	for _, d := range res.Detections {
		got[d.Domain] = true
	}
	if got["rainbow.c3"] {
		t.Error("seed domain must not be re-reported")
	}
	if !got["fluttershy.c3"] || !got["pinkiepie.c3"] {
		t.Errorf("delivery domains not recovered: %v", res.Domains())
	}
	// Both beaconing hosts are compromised.
	wantHosts := map[string]bool{"hostA": true, "hostB": true}
	for _, h := range res.Hosts {
		delete(wantHosts, h)
	}
	if len(wantHosts) != 0 {
		t.Errorf("missing hosts %v (got %v)", wantHosts, res.Hosts)
	}
}

func TestBeliefPropagationNoSeeds(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, nil, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})
	if len(res.Detections) != 0 || len(res.Hosts) != 0 {
		t.Errorf("no seeds must yield no detections: %+v", res)
	}
}

func TestBeliefPropagationMaxIterations(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold, MaxIterations: 1})
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	// One iteration can find the C&C domain but not the whole community.
	if len(res.Detections) == 0 {
		t.Error("first iteration should find the C&C domain")
	}
}

func TestBeliefPropagationThresholdStops(t *testing.T) {
	s := buildCampaignSnapshot()
	_, sim := lanlStack()
	// Impossible threshold: nothing labels beyond the (absent) C&C step.
	res := BeliefPropagation(s, []string{"hostA"}, nil, nil, sim,
		Config{ScoreThreshold: 2.0})
	if len(res.Detections) != 0 {
		t.Errorf("threshold 2.0 should block all detections: %v", res.Domains())
	}
}

func TestBeliefPropagationOrdering(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})
	for i, d := range res.Detections {
		if d.Iteration == 0 {
			t.Errorf("detection %d has no iteration", i)
		}
		if i > 0 && d.Iteration < res.Detections[i-1].Iteration {
			t.Error("detections out of iteration order")
		}
		if len(d.Hosts) == 0 {
			t.Errorf("detection %s lists no hosts", d.Domain)
		}
	}
}

func TestReasonString(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonSeed: "seed", ReasonCC: "c&c", ReasonSimilarity: "similarity",
		Reason(0): "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestBeliefPropagationSeedDomainAbsentFromTraffic(t *testing.T) {
	// An IOC seed that does not appear in today's rare traffic must be a
	// no-op, not a crash (the SOC feeds the whole IOC list every day).
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, nil, []string{"never-seen.example"}, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})
	if len(res.Detections) != 0 || len(res.Hosts) != 0 {
		t.Errorf("absent seed expanded: %+v", res)
	}
}

func TestBeliefPropagationSeedHostWithNoRareDomains(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostZ"}, nil, cc, sim,
		Config{ScoreThreshold: scoring.AdditiveThreshold})
	if len(res.Detections) != 0 {
		t.Errorf("idle seed host produced detections: %v", res.Domains())
	}
	// The seed host itself is still reported compromised (it was given as
	// confirmed by the analyst).
	if len(res.Hosts) != 1 || res.Hosts[0] != "hostZ" {
		t.Errorf("hosts = %v", res.Hosts)
	}
	if len(res.NewHosts) != 0 {
		t.Errorf("seed host must not be listed as newly discovered: %v", res.NewHosts)
	}
}

func TestBeliefPropagationNilDetectors(t *testing.T) {
	s := buildCampaignSnapshot()
	res := BeliefPropagation(s, []string{"hostA"}, nil, nil, nil, Config{ScoreThreshold: 0.1})
	if len(res.Detections) != 0 {
		t.Errorf("nil hooks must label nothing: %v", res.Domains())
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (immediate stop)", res.Iterations)
	}
}

func TestBeliefPropagationEmptySnapshot(t *testing.T) {
	s := profile.NewSnapshot(day, nil, profile.NewHistory(), 10)
	cc, sim := lanlStack()
	res := BeliefPropagation(s, []string{"hostA"}, []string{"seed.c3"}, cc, sim,
		Config{ScoreThreshold: 0.25})
	if len(res.Detections) != 0 {
		t.Errorf("empty snapshot produced detections: %v", res.Domains())
	}
}

// stubScorer labels domains by fixed score.
type stubScorer map[string]float64

func (s stubScorer) Score(da *profile.DomainActivity, _ []features.Labeled, _ time.Time) float64 {
	return s[da.Domain]
}

func TestBeliefPropagationInvariants(t *testing.T) {
	// Structural invariants that must hold for any run:
	//  1. every detection is a rare domain of the snapshot;
	//  2. every reported host contacted at least one detection or was a seed;
	//  3. no domain is detected twice;
	//  4. lowering Ts never loses detections (monotone coverage).
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	for _, ts := range []float64{0.1, 0.25, 0.4, 0.6, 0.9} {
		res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
			Config{ScoreThreshold: ts, MaxIterations: 10})
		seen := map[string]bool{}
		hostsWithDetections := map[string]bool{"hostA": true}
		for _, d := range res.Detections {
			if _, ok := s.Rare[d.Domain]; !ok {
				t.Fatalf("Ts=%v: detection %s is not a rare domain", ts, d.Domain)
			}
			if seen[d.Domain] {
				t.Fatalf("Ts=%v: %s detected twice", ts, d.Domain)
			}
			seen[d.Domain] = true
			for _, h := range d.Hosts {
				hostsWithDetections[h] = true
			}
		}
		for _, h := range res.Hosts {
			if !hostsWithDetections[h] {
				t.Errorf("Ts=%v: host %s reported without evidence", ts, h)
			}
		}
	}

	// Monotone coverage in Ts.
	var prev map[string]bool
	for _, ts := range []float64{0.9, 0.6, 0.4, 0.25, 0.1} {
		res := BeliefPropagation(s, []string{"hostA"}, nil, cc, sim,
			Config{ScoreThreshold: ts, MaxIterations: 10})
		cur := map[string]bool{}
		for _, d := range res.Detections {
			cur[d.Domain] = true
		}
		if prev != nil {
			for d := range prev {
				if !cur[d] {
					t.Errorf("lowering Ts to %v lost detection %s", ts, d)
				}
			}
		}
		prev = cur
	}
}

func TestBeliefPropagationPicksMaxScore(t *testing.T) {
	var visits []logs.Visit
	base := day.Add(9 * time.Hour)
	for _, d := range []string{"low.c3", "high.c3", "mid.c3"} {
		visits = append(visits, logs.Visit{
			Time: base, Host: "hostA", Domain: d,
			DestIP: netip.MustParseAddr("203.0.113.5"),
		})
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	scores := stubScorer{"low.c3": 0.3, "high.c3": 0.9, "mid.c3": 0.6}
	res := BeliefPropagation(s, []string{"hostA"}, nil, nil, scores,
		Config{ScoreThreshold: 0.5, MaxIterations: 2})
	if len(res.Detections) != 2 {
		t.Fatalf("detections = %v", res.Domains())
	}
	if res.Detections[0].Domain != "high.c3" || res.Detections[1].Domain != "mid.c3" {
		t.Errorf("order = %v, want high then mid", res.Domains())
	}
	if res.Detections[0].Score != 0.9 {
		t.Errorf("score = %v", res.Detections[0].Score)
	}
}

// TestBeliefPropagationWorkersDeterminism: the parallel Compute_SimScore
// fan must reproduce the sequential run exactly — same
// detections, same order, same scores, same iteration labels, same host
// sets — for any worker count.
func TestBeliefPropagationWorkersDeterminism(t *testing.T) {
	s := buildCampaignSnapshot()
	cc, sim := lanlStack()
	run := func(workers int) *Result {
		return BeliefPropagation(s, []string{"hostA"}, nil, cc, sim, Config{
			ScoreThreshold: scoring.AdditiveThreshold,
			MaxIterations:  8,
			Workers:        workers,
		})
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 0} { // 0 = GOMAXPROCS
		got := run(w)
		if len(got.Detections) != len(want.Detections) {
			t.Fatalf("workers=%d: %d detections, want %d", w, len(got.Detections), len(want.Detections))
		}
		for i := range want.Detections {
			g, wnt := got.Detections[i], want.Detections[i]
			if g.Domain != wnt.Domain || g.Reason != wnt.Reason || g.Score != wnt.Score ||
				g.Iteration != wnt.Iteration || fmt.Sprint(g.Hosts) != fmt.Sprint(wnt.Hosts) {
				t.Fatalf("workers=%d: detection %d = %+v, want %+v", w, i, g, wnt)
			}
		}
		if fmt.Sprint(got.Hosts) != fmt.Sprint(want.Hosts) || fmt.Sprint(got.NewHosts) != fmt.Sprint(want.NewHosts) {
			t.Fatalf("workers=%d: hosts %v/%v, want %v/%v", w, got.Hosts, got.NewHosts, want.Hosts, want.NewHosts)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("workers=%d: %d iterations, want %d", w, got.Iterations, want.Iterations)
		}
	}
}

// TestCCSetMatchesDetectorHook: the day's C&C set, as the LANL pipeline
// builds it from FindCCParallel, drives Algorithm 1 exactly as the per-call
// heuristic does — same detections, reasons, scores, iterations and hosts.
func TestCCSetMatchesDetectorHook(t *testing.T) {
	s := buildCampaignSnapshot()
	det, sim := ccdetect.NewLANLDetector(), scoring.AdditiveScorer{}
	set := CCSet{}
	for _, ad := range det.FindCCParallel(s, 1) {
		set[ad.Domain] = true
	}
	if !set["rainbow.c3"] {
		t.Fatalf("day's C&C set %v lacks rainbow.c3", set)
	}
	cfg := Config{ScoreThreshold: scoring.AdditiveThreshold, MaxIterations: 8}
	want := BeliefPropagation(s, []string{"hostA"}, nil, det, sim, cfg)
	got := BeliefPropagation(s, []string{"hostA"}, nil, set, sim, cfg)
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("with the day's set:\n%+v\nwith the hook:\n%+v", got, want)
	}
	if got.Detections[0].Domain != "rainbow.c3" || got.Detections[0].Reason != ReasonCC {
		t.Errorf("first detection %+v, want C&C rainbow.c3", got.Detections[0])
	}
}

// TestBeliefPropagationTieBreaks pins Algorithm 1's step-2 tie-breaks: at
// equal top scores the first candidate in sorted order is labeled, and the
// zero Config runs at most 10 iterations.
func TestBeliefPropagationTieBreaks(t *testing.T) {
	var visits []logs.Visit
	base := day.Add(9 * time.Hour)
	for i := 0; i < 12; i++ {
		visits = append(visits, logs.Visit{
			Time: base, Host: "hostA", Domain: fmt.Sprintf("d%02d.c3", 11-i),
			DestIP: netip.MustParseAddr("203.0.113.5"),
		})
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 10)
	scores := stubScorer{}
	for i := 0; i < 12; i++ {
		scores[fmt.Sprintf("d%02d.c3", i)] = 0.5
	}
	res := BeliefPropagation(s, []string{"hostA"}, nil, nil, scores, Config{ScoreThreshold: 0.5})
	if res.Iterations != 10 || len(res.Detections) != 10 {
		t.Fatalf("%d iterations, %d detections; want the default 10 of each", res.Iterations, len(res.Detections))
	}
	for i, d := range res.Detections {
		if want := fmt.Sprintf("d%02d.c3", i); d.Domain != want || d.Iteration != i+1 {
			t.Errorf("detection %d = %s in iteration %d, want %s in %d", i, d.Domain, d.Iteration, want, i+1)
		}
	}
}
