package eval

import (
	"strings"
	"sync"
	"testing"
)

// The experiment drivers are exercised end-to-end at small scale: each must
// run, produce a well-formed table, and satisfy the shape expectations
// DESIGN.md §3 lists for its paper artifact. The two runs are expensive, so
// they are computed once and shared (they are treated as read-only).

var (
	lanlOnce   sync.Once
	lanlShared *LANLRun
	entOnce    sync.Once
	entShared  *EnterpriseRun
)

func lanlRun(t *testing.T) *LANLRun {
	t.Helper()
	lanlOnce.Do(func() { lanlShared = RunLANL(ScaleSmall, 21) })
	return lanlShared
}

func entRun(t *testing.T) *EnterpriseRun {
	t.Helper()
	entOnce.Do(func() { entShared = RunEnterprise(ScaleSmall, 21) })
	if !entShared.Pipe.Trained() {
		t.Fatal("enterprise run did not finish calibration")
	}
	return entShared
}

func TestTable1(t *testing.T) {
	run := lanlRun(t)
	tab := Table1(run)
	s := tab.String()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(s, "No hints") || !strings.Contains(s, "3/22") {
		t.Errorf("Table I misses case 4:\n%s", s)
	}
}

func TestTable2Shape(t *testing.T) {
	run := lanlRun(t)
	rows, tab := Table2(run)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byParam := map[[2]float64]Table2Row{}
	for _, r := range rows {
		byParam[[2]float64{r.BinWidth, r.Threshold}] = r
	}
	// Monotonicity in JT at fixed W (Table II trend).
	for _, w := range []float64{5, 10, 20} {
		prevAll, prevMal := -1, -1
		for _, jt := range []float64{0.0, 0.034, 0.06} {
			r := byParam[[2]float64{w, jt}]
			if prevAll >= 0 && (r.AllTestPairs < prevAll || r.MaliciousTest < prevMal) {
				t.Errorf("W=%v: counts not monotone in JT", w)
			}
			prevAll, prevMal = r.AllTestPairs, r.MaliciousTest
		}
	}
	// The paper's operating point W=10, JT=0.06 captures all malicious pairs.
	op := byParam[[2]float64{10, 0.06}]
	if op.MaliciousTrain == 0 || op.MaliciousTest == 0 {
		t.Errorf("operating point captures nothing: %+v", op)
	}
	// Malicious pairs are a small fraction of the automated population.
	if op.AllTestPairs <= op.MaliciousTest {
		t.Errorf("automated population should exceed malicious pairs: %+v", op)
	}
	if len(tab.Rows) != 10 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestTable3Shape(t *testing.T) {
	run := lanlRun(t)
	res, tab := Table3(run)
	tot := res.Totals()
	if tot.TruePositives == 0 {
		t.Fatal("no true positives")
	}
	if tdr := tot.TDR(); tdr < 0.85 {
		t.Errorf("TDR = %v, want >= 0.85 (paper: 98.33%%)", tdr)
	}
	if fnr := tot.FNR(); fnr > 0.25 {
		t.Errorf("FNR = %v, want <= 0.25 (paper: 6.25%%)", fnr)
	}
	if !strings.Contains(tab.String(), "Overall") {
		t.Error("summary row missing")
	}
	// All four cases must appear in both splits except case 4 (test only).
	if _, ok := res.Test[4]; !ok {
		t.Error("case 4 missing from testing split")
	}
	if c4 := res.Train[4]; c4.TruePositives != 0 {
		t.Error("case 4 must not contribute training results")
	}
}

func TestFigure2Shape(t *testing.T) {
	run := lanlRun(t)
	points, tab := Figure2(run)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		// Every reduction step must shrink (or hold) the population, and
		// rare must sit well below the full population.
		if !(p.All >= p.AfterInternal && p.AfterInternal >= p.AfterServers) {
			t.Errorf("%v: reduction not monotone: %+v", p.Day, p)
		}
		if p.Rare > p.New {
			t.Errorf("%v: rare (%d) exceeds new (%d)", p.Day, p.Rare, p.New)
		}
		if p.Rare*2 > p.All {
			t.Errorf("%v: rare (%d) not a small fraction of all (%d)", p.Day, p.Rare, p.All)
		}
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

func TestFigure3Shape(t *testing.T) {
	run := lanlRun(t)
	res, tab := Figure3(run)
	if res.MalMal.N() == 0 || res.MalLegit.N() == 0 {
		t.Fatalf("empty distributions: mal-mal=%d mal-legit=%d", res.MalMal.N(), res.MalLegit.N())
	}
	// The paper's headline: at 160s the mal-mal CDF dominates sharply
	// (56% vs 3.8%).
	mm, ml := res.MalMal.At(160), res.MalLegit.At(160)
	if mm <= ml {
		t.Errorf("mal-mal CDF at 160s (%v) must dominate mal-legit (%v)", mm, ml)
	}
	if mm < 0.4 {
		t.Errorf("mal-mal mass below 160s = %v, want large", mm)
	}
	if ml > 0.2 {
		t.Errorf("mal-legit mass below 160s = %v, want small", ml)
	}
	if len(tab.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestFigure4Shape(t *testing.T) {
	run := lanlRun(t)
	res, tab := Figure4(run)
	if res.Campaign == nil || res.Campaign.Case != 3 {
		t.Fatal("figure 4 must use a case-3 campaign")
	}
	if res.Result == nil || len(res.Result.Detections) == 0 {
		t.Fatal("no detections in trace")
	}
	if !strings.Contains(res.DOT, "graph") || !strings.Contains(res.DOT, "--") {
		t.Errorf("DOT malformed:\n%s", res.DOT)
	}
	if len(tab.Rows) != len(res.Result.Detections) {
		t.Error("trace table rows mismatch")
	}
}

func TestFigure5Shape(t *testing.T) {
	run := entRun(t)
	res, tab := Figure5(run)
	if res.Reported.N() == 0 || res.Legitimate.N() == 0 {
		t.Fatalf("empty score distributions: reported=%d legit=%d", res.Reported.N(), res.Legitimate.N())
	}
	// Reported domains score higher: their median must exceed the
	// legitimate median.
	if res.Reported.Quantile(0.5) <= res.Legitimate.Quantile(0.5) {
		t.Errorf("reported median %v <= legitimate median %v",
			res.Reported.Quantile(0.5), res.Legitimate.Quantile(0.5))
	}
	if len(tab.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestFigure6aShape(t *testing.T) {
	run := entRun(t)
	points, tab := Figure6a(run)
	if len(points) == 0 {
		t.Fatal("no sweep points")
	}
	prev := -1
	for _, p := range points {
		d := p.Breakdown.Detected()
		if prev >= 0 && d > prev {
			t.Errorf("detections must not grow as the threshold rises: %v", points)
		}
		prev = d
	}
	if points[0].Breakdown.Detected() == 0 {
		t.Error("lowest threshold detects nothing")
	}
	// Most detections at the operating point must be truly malicious.
	if tdr := points[0].Breakdown.TDR(); tdr < 0.6 {
		t.Errorf("TDR at 0.40 = %v", tdr)
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

func TestFigure6bShape(t *testing.T) {
	run := entRun(t)
	points, _ := Figure6b(run)
	prev := -1
	for _, p := range points {
		d := p.Breakdown.Detected()
		if prev >= 0 && d > prev {
			t.Errorf("no-hint detections must shrink with threshold: %+v", points)
		}
		prev = d
	}
	if points[0].Breakdown.Detected() == 0 {
		t.Error("no detections at the lowest threshold")
	}
}

func TestFigure6cShape(t *testing.T) {
	run := entRun(t)
	points, _ := Figure6c(run)
	prev := -1
	for _, p := range points {
		d := p.Breakdown.Detected()
		if prev >= 0 && d > prev {
			t.Errorf("SOC-hints detections must shrink with threshold: %+v", points)
		}
		prev = d
	}
}

func TestModesOverlapPartially(t *testing.T) {
	// §VI-D: the two modes detect largely disjoint domain sets, so running
	// both improves coverage.
	run := entRun(t)
	noHint := map[string]bool{}
	soc := map[string]bool{}
	for _, rep := range run.OperationReports() {
		for _, d := range rep.NoHintDomains() {
			noHint[d] = true
		}
		for _, d := range rep.SOCHintDomains() {
			soc[d] = true
		}
	}
	if len(noHint) == 0 || len(soc) == 0 {
		t.Skipf("one mode produced nothing at this scale: nohint=%d soc=%d", len(noHint), len(soc))
	}
	onlySOC := 0
	for d := range soc {
		if !noHint[d] {
			onlySOC++
		}
	}
	if onlySOC == 0 {
		t.Log("SOC-hints contributed no unique domains on this seed (acceptable but notable)")
	}
}

func TestFigure7And8(t *testing.T) {
	run := entRun(t)
	c7, tab7 := Figure7(run)
	if c7.DOT != "" {
		if !strings.Contains(c7.DOT, "--") {
			t.Errorf("figure 7 DOT has no edges:\n%s", c7.DOT)
		}
		if len(c7.Seeds) == 0 {
			t.Error("figure 7 community has no seeds")
		}
	}
	_ = tab7
	c8, _ := Figure8(run)
	if c8.DOT != "" && len(c8.Seeds) == 0 {
		t.Error("figure 8 community has no seeds")
	}
	if c7.DOT == "" && c8.DOT == "" {
		t.Skip("no communities at this scale")
	}
}

func TestAblationDetectors(t *testing.T) {
	results, tab := AblationDetectors(5, 40)
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]AblationDetectorResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	dyn := byName["dynamic-histogram"]
	std := byName["stddev"]
	if dyn.OutlierRecall <= std.OutlierRecall {
		t.Errorf("dynamic outlier recall %v must beat stddev %v", dyn.OutlierRecall, std.OutlierRecall)
	}
	if dyn.CleanRecall < 0.95 {
		t.Errorf("dynamic clean recall = %v", dyn.CleanRecall)
	}
	if dyn.FalsePositiveRate > 0.1 {
		t.Errorf("dynamic human FPR = %v", dyn.FalsePositiveRate)
	}
	if len(tab.Rows) != 5 {
		t.Error("table rows")
	}
}

func TestAblationFeatures(t *testing.T) {
	run := entRun(t)
	results, tab, err := AblationFeatures(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.R2Full < r.R2Without-1e-9 {
			t.Errorf("%s: removing a feature cannot raise training R2 (%v -> %v)",
				r.Feature, r.R2Full, r.R2Without)
		}
	}
	if len(tab.Rows) != 6 {
		t.Error("table rows")
	}
}
