package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 maps each benchmark to its artifact). Run with
//
//	go test -bench=. -benchmem
//
// Numbers beyond ns/op are attached via b.ReportMetric: e.g. the LANL
// challenge TDR/FNR (Table III) and the Figure 3 separation. The rendered
// artifacts themselves are printed by cmd/benchreport and recorded in
// EXPERIMENTS.md; use -v to see them logged here too.

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/histogram"
	"repro/internal/profile"
	"repro/internal/regression"
)

func benchBase() time.Time { return time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC) }

// Shared expensive fixtures: the two full pipeline runs used by the
// artifact benchmarks. They are built once, outside the timed loops.
var (
	benchMu   sync.Mutex
	benchLANL *eval.LANLRun
	benchEnt  *eval.EnterpriseRun
)

func lanlFixture(b *testing.B) *eval.LANLRun {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchLANL == nil {
		benchLANL = eval.RunLANL(eval.ScaleSmall, 21)
	}
	return benchLANL
}

func entFixture(b *testing.B) *eval.EnterpriseRun {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchEnt == nil {
		run := eval.RunEnterprise(eval.ScaleSmall, 21)
		benchEnt = run
	}
	return benchEnt
}

// ---- Tables ----

func BenchmarkTable1_ChallengeCases(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Table1(run)
	}
	b.StopTimer()
	b.Log("\n" + eval.Table1(run).String())
}

func BenchmarkTable2_HistogramParams(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var rows []eval.Table2Row
	for i := 0; i < b.N; i++ {
		rows, _ = eval.Table2(run)
	}
	b.StopTimer()
	for _, r := range rows {
		if r.BinWidth == 10 && r.Threshold == 0.06 {
			b.ReportMetric(float64(r.MaliciousTest), "malpairs_test")
			b.ReportMetric(float64(r.AllTestPairs), "allpairs_test")
		}
	}
	_, tab := eval.Table2(run)
	b.Log("\n" + tab.String())
}

func BenchmarkTable3_LANLResults(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var res eval.Table3Result
	for i := 0; i < b.N; i++ {
		res, _ = eval.Table3(run)
	}
	b.StopTimer()
	tot := res.Totals()
	b.ReportMetric(tot.TDR()*100, "TDR%")
	b.ReportMetric(tot.FDR()*100, "FDR%")
	b.ReportMetric(tot.FNR()*100, "FNR%")
	_, tab := eval.Table3(run)
	b.Log("\n" + tab.String())
}

// ---- Figures ----

func BenchmarkFigure2_DataReduction(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var pts []eval.Figure2Point
	for i := 0; i < b.N; i++ {
		pts, _ = eval.Figure2(run)
	}
	b.StopTimer()
	if len(pts) > 0 {
		b.ReportMetric(float64(pts[0].All), "domains_all")
		b.ReportMetric(float64(pts[0].Rare), "domains_rare")
	}
	_, tab := eval.Figure2(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure3_TimingCDF(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var res eval.Figure3Result
	for i := 0; i < b.N; i++ {
		res, _ = eval.Figure3(run)
	}
	b.StopTimer()
	b.ReportMetric(res.MalMal.At(160)*100, "malmal_160s%")
	b.ReportMetric(res.MalLegit.At(160)*100, "mallegit_160s%")
	_, tab := eval.Figure3(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure4_BPTrace(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var res eval.Figure4Result
	for i := 0; i < b.N; i++ {
		res, _ = eval.Figure4(run)
	}
	b.StopTimer()
	if res.Result != nil {
		b.ReportMetric(float64(len(res.Result.Detections)), "detections")
		b.ReportMetric(float64(res.Result.Iterations), "iterations")
	}
	_, tab := eval.Figure4(run)
	b.Log("\n" + tab.String() + "\n" + res.DOT)
}

func BenchmarkFigure5_ScoreCDF(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var res eval.Figure5Result
	for i := 0; i < b.N; i++ {
		res, _ = eval.Figure5(run)
	}
	b.StopTimer()
	b.ReportMetric(res.Reported.Quantile(0.5), "reported_median")
	b.ReportMetric(res.Legitimate.Quantile(0.5), "legit_median")
	_, tab := eval.Figure5(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure6a_CCSweep(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var pts []eval.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = eval.Figure6a(run)
	}
	b.StopTimer()
	if len(pts) > 0 {
		b.ReportMetric(float64(pts[0].Breakdown.Detected()), "detected@0.40")
		b.ReportMetric(pts[0].Breakdown.TDR()*100, "TDR%@0.40")
	}
	_, tab := eval.Figure6a(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure6b_NoHintSweep(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var pts []eval.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = eval.Figure6b(run)
	}
	b.StopTimer()
	if len(pts) > 0 {
		b.ReportMetric(float64(pts[0].Breakdown.Detected()), "detected@0.33")
		b.ReportMetric(pts[0].Breakdown.NDR()*100, "NDR%@0.33")
	}
	_, tab := eval.Figure6b(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure6c_SOCHintsSweep(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var pts []eval.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = eval.Figure6c(run)
	}
	b.StopTimer()
	if len(pts) > 0 {
		b.ReportMetric(float64(pts[0].Breakdown.Detected()), "detected@0.33")
	}
	_, tab := eval.Figure6c(run)
	b.Log("\n" + tab.String())
}

func BenchmarkFigure7_NoHintCommunity(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var res eval.CommunityResult
	for i := 0; i < b.N; i++ {
		res, _ = eval.Figure7(run)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Domains)), "domains")
	b.ReportMetric(float64(len(res.Hosts)), "hosts")
	_, tab := eval.Figure7(run)
	b.Log("\n" + tab.String() + "\n" + res.DOT)
}

func BenchmarkFigure8_SOCCommunity(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var res eval.CommunityResult
	for i := 0; i < b.N; i++ {
		res, _ = eval.Figure8(run)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Domains)), "domains")
	_, tab := eval.Figure8(run)
	b.Log("\n" + tab.String() + "\n" + res.DOT)
}

// ---- Ablations (DESIGN.md §6) ----

func BenchmarkAblation_Detectors(b *testing.B) {
	b.ResetTimer()
	var res []eval.AblationDetectorResult
	for i := 0; i < b.N; i++ {
		res, _ = eval.AblationDetectors(5, 40)
	}
	b.StopTimer()
	for _, r := range res {
		if r.Name == "dynamic-histogram" {
			b.ReportMetric(r.OutlierRecall*100, "dyn_outlier_recall%")
		}
		if r.Name == "stddev" {
			b.ReportMetric(r.OutlierRecall*100, "std_outlier_recall%")
		}
	}
	_, tab := eval.AblationDetectors(5, 40)
	b.Log("\n" + tab.String())
}

func BenchmarkAblation_Features(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.AblationFeatures(run); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, tab, _ := eval.AblationFeatures(run)
	b.Log("\n" + tab.String())
}

func BenchmarkAblation_Evasion(b *testing.B) {
	b.ResetTimer()
	var pts []eval.EvasionPoint
	for i := 0; i < b.N; i++ {
		pts, _ = eval.AblationEvasion(3, 200)
	}
	b.StopTimer()
	for _, p := range pts {
		if p.JitterSeconds == 5 {
			b.ReportMetric(p.DetectionRate*100, "detect%@5s")
		}
		if p.JitterSeconds == 300 {
			b.ReportMetric(p.DetectionRate*100, "detect%@300s")
		}
	}
	_, tab := eval.AblationEvasion(3, 200)
	b.Log("\n" + tab.String())
}

func BenchmarkAblation_DistanceMetric(b *testing.B) {
	b.ResetTimer()
	var pts []eval.DistanceMetricPoint
	for i := 0; i < b.N; i++ {
		pts, _ = eval.AblationDistanceMetric(4, 60)
	}
	b.StopTimer()
	if len(pts) == 2 {
		b.ReportMetric(pts[1].Agreement*100, "l1_agreement%")
	}
	_, tab := eval.AblationDistanceMetric(4, 60)
	b.Log("\n" + tab.String())
}

func BenchmarkAblation_RareRestriction(b *testing.B) {
	run := lanlFixture(b)
	b.ResetTimer()
	var res eval.RareReductionResult
	for i := 0; i < b.N; i++ {
		res, _ = eval.AblationRareRestriction(run)
	}
	b.StopTimer()
	b.ReportMetric(res.Factor, "reduction_x")
	_, tab := eval.AblationRareRestriction(run)
	b.Log("\n" + tab.String())
}

func BenchmarkDetectionClusters(b *testing.B) {
	run := entFixture(b)
	b.ResetTimer()
	var cl []Cluster
	for i := 0; i < b.N; i++ {
		cl, _ = eval.Clusters(run)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cl)), "clusters")
	_, tab := eval.Clusters(run)
	b.Log("\n" + tab.String())
}

func BenchmarkGenerality(b *testing.B) {
	b.ResetTimer()
	var res eval.GeneralityResult
	for i := 0; i < b.N; i++ {
		res, _ = eval.Generality(eval.ScaleSmall, 21)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.ProxyVisible), "proxy_visible")
	b.ReportMetric(float64(res.FlowVisible), "flow_visible")
	b.ReportMetric(float64(res.Campaigns), "campaigns")
	_, tab := eval.Generality(eval.ScaleSmall, 21)
	b.Log("\n" + tab.String())
}

func BenchmarkLANLRobustness(b *testing.B) {
	b.ResetTimer()
	var sum eval.SeedSummary
	for i := 0; i < b.N; i++ {
		sum, _ = eval.LANLRobustness(eval.ScaleSmall, 100, 3)
	}
	b.StopTimer()
	b.ReportMetric(sum.TDRMean*100, "TDR_mean%")
	b.ReportMetric(sum.FNRMean*100, "FNR_mean%")
	_, tab := eval.LANLRobustness(eval.ScaleSmall, 100, 3)
	b.Log("\n" + tab.String())
}

// ---- End-to-end pipeline throughput ----

func BenchmarkLANLPipeline_FullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.RunLANL(eval.ScaleSmall, int64(100+i))
	}
}

func BenchmarkEnterprisePipeline_FullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.RunEnterprise(eval.ScaleSmall, int64(100+i))
	}
}

// ---- Hot-path micro-benchmarks ----

func BenchmarkDynamicHistogramAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	intervals := make([]float64, 100)
	for i := range intervals {
		intervals[i] = 600 + rng.Float64()*8 - 4
	}
	cfg := histogram.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram.Analyze(intervals, cfg)
	}
}

func BenchmarkJeffreyDivergence(b *testing.B) {
	h := histogram.Build([]float64{600, 601, 599, 600, 3600, 602}, 10)
	ref := histogram.PeriodicReference(600, h.Total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram.JeffreyDivergence(h, ref, 10)
	}
}

func BenchmarkSnapshotBuild(b *testing.B) {
	g := NewLANLGenerator(LANLGeneratorConfig{
		Seed: 3, Hosts: 60, Servers: 4, PopularDomains: 80,
		NewRarePerDay: 15, QueriesPerHostDay: 20,
	})
	visits, _ := ReduceDNS(g.Day(0))
	hist := NewHistory()
	day := g.DayTime(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewSnapshot(day, visits, hist, 10)
	}
}

func BenchmarkBeliefPropagationDay(b *testing.B) {
	run := lanlFixture(b)
	// Reuse the figure-4 campaign day for a realistic BP workload.
	res, _ := eval.Figure4(run)
	rep := run.ChallengeReports[res.Campaign.ID]
	hints := run.HintIPs(res.Campaign)
	cc := core.CCSet{}
	for _, ad := range NewLANLCCDetector().FindCCParallel(rep.Snapshot, 0) {
		cc[ad.Domain] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BeliefPropagation(rep.Snapshot, hints, nil, cc, AdditiveScorer{}, BPConfig{
			ScoreThreshold: 0.25, MaxIterations: 5,
		})
	}
}

// ---- Day-close stages (the PR 3 concurrency tentpole) ----
//
// Both benchmarks below resolve their worker pools from GOMAXPROCS
// (Workers = 0), so `-cpu 1,4` compares the sequential and parallel
// day-close paths on identical work.

// dayCloseDay is one operation day ready to close: a trained history plus
// the day's reduced visits, so each benchmark iteration replays the pure
// analytics (no history commit, so every iteration sees identical work).
type dayCloseDay struct {
	day    time.Time
	visits []Visit
	hist   *History
	det    *CCDetector
}

var (
	dayCloseOnce, churnCloseOnce sync.Once
	dayCloseFix, churnCloseFix   dayCloseDay
)

// newDayCloseDay trains a history on cfg's training days and reduces its
// first operation day.
func newDayCloseDay(cfg EnterpriseGeneratorConfig) dayCloseDay {
	g := NewEnterpriseGenerator(cfg)
	reg := NewWHOISRegistry()
	PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	hist := NewHistory()
	for d := 0; d < g.Config().TrainingDays; d++ {
		visits, _ := ReduceProxy(g.Day(d), g.DHCPMap(d))
		NewSnapshot(g.DayTime(d), visits, hist, 10).Commit(hist)
	}
	opDay := g.Config().TrainingDays
	visits, _ := ReduceProxy(g.Day(opDay), g.DHCPMap(opDay))
	return dayCloseDay{
		day:    g.DayTime(opDay),
		visits: visits,
		hist:   hist,
		det:    NewCCDetector(&FeatureExtractor{Hist: hist, Whois: reg}),
	}
}

// dayCloseFixture is a realistic enterprise operation day: 300 hosts
// browsing, 80 fresh benign rare domains, 109 rare domains in all.
func dayCloseFixture() *dayCloseDay {
	dayCloseOnce.Do(func() {
		dayCloseFix = newDayCloseDay(EnterpriseGeneratorConfig{
			Seed: 9, TrainingDays: 5, OperationDays: 1,
			Hosts: 300, PopularDomains: 150, NewRarePerDay: 80,
			BenignAutoPerDay: 10, Campaigns: 4,
		})
	})
	return &dayCloseFix
}

// churnCloseFixture is a churn-shaped day, the benchmark module's churn
// filler in the generator's terms: 400 hosts over a 4,000-domain pool and
// 6,000 fresh rare domains a day, so nearly every record starts a run of its
// own and the close classifies and analyzes thousands of rare domains.
func churnCloseFixture() *dayCloseDay {
	churnCloseOnce.Do(func() {
		churnCloseFix = newDayCloseDay(EnterpriseGeneratorConfig{
			Seed: 9, TrainingDays: 3, OperationDays: 1,
			Hosts: 400, PopularDomains: 4000, SessionsPerDay: 5, NewRarePerDay: 6000,
			BenignAutoPerDay: 600, Campaigns: -1,
		})
	})
	return &churnCloseFix
}

// BenchmarkDayClose measures the analytics half of a streaming rollover —
// snapshot build, periodicity profiling, feature extraction — over one
// operation day.
func BenchmarkDayClose(b *testing.B) {
	f := dayCloseFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := NewSnapshotParallel(f.day, f.visits, f.hist, 10, 0)
		ads := f.det.FindAutomatedParallel(snap, 0)
		f.det.FillFeaturesParallel(ads, f.day, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(f.visits))/b.Elapsed().Seconds(), "visits/s")
}

// BenchmarkDayCloseIncremental measures the same day-close analytics as
// BenchmarkDayClose, but from per-shard incremental partials maintained
// during ingest (the streaming engine's rollover path since the
// incremental-snapshot change): the snapshot stage is an O(domains)
// classification instead of a full O(visits) re-reduce of the day, so
// the two benchmarks bracket exactly what incremental maintenance removes
// from the rollover. "domain" is the engine's path — shards hold whole
// domains and the close classifies them as they stand
// (profile.ClassifyDisjoint); "pair" partitions by (host, domain) and pays
// the overlap union first (MergeSnapshotParallel), which only the benchmark
// module's traced close still does; "churn" is the engine's path over
// churnCloseFixture's day, whose close is dominated by the per-rare-domain
// work.
func BenchmarkDayCloseIncremental(b *testing.B) {
	const shards = 4
	seed := maphash.MakeSeed()
	byDomain := func(v *Visit) int { return int(maphash.String(seed, v.Domain) % shards) }
	for _, bc := range []struct {
		name     string
		fix      func() *dayCloseDay
		part     func(v *Visit) int
		snapshot func(day time.Time, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot
	}{
		{"domain", dayCloseFixture, byDomain, profile.ClassifyDisjoint},
		{"pair", dayCloseFixture, func(v *Visit) int { return profile.PairPartition(v.Host, v.Domain, shards) }, MergeSnapshotParallel},
		{"churn", churnCloseFixture, byDomain, profile.ClassifyDisjoint},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := bc.fix()
			// Rebuild the partials for every iteration, untimed (that cost
			// rides the ingest hot path in production): reusing one set
			// across iterations would hand later closes pre-sorted rare
			// timestamps and understate the close. One builder per shard,
			// seq = arrival index.
			buildParts := func() []*IncrementalBuilder {
				parts := make([]*IncrementalBuilder, shards)
				for i := range parts {
					parts[i] = NewIncrementalBuilder()
				}
				for i := range f.visits {
					v := &f.visits[i]
					parts[bc.part(v)].Add(uint64(i), v)
				}
				return parts
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				parts := buildParts()
				b.StartTimer()
				snap := bc.snapshot(f.day, parts, f.hist, 10, 0)
				ads := f.det.FindAutomatedParallel(snap, 0)
				f.det.FillFeaturesParallel(ads, f.day, 0)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(len(f.visits))/b.Elapsed().Seconds(), "visits/s")
			b.ReportMetric(float64(len(profile.ClassifyDisjoint(f.day, buildParts(), f.hist, 10, 1).Rare)), "rare/day")
		})
	}
}

// BenchmarkBeliefProp measures one no-hint belief propagation run on a
// trained enterprise day, seeded by its own C&C detections, with the day's
// C&C set as Detect_C&C — the Compute_SimScore fan dominates Algorithm 1.
func BenchmarkBeliefProp(b *testing.B) {
	run := entFixture(b)
	var rep *EnterpriseDayReport
	reps := run.OperationReports()
	for i := range reps {
		if len(reps[i].CC) > 0 {
			rep = &reps[i]
			break
		}
	}
	if rep == nil {
		b.Skip("no operation day with C&C detections")
	}
	var seeds []string
	cc := core.CCSet{}
	for _, ad := range rep.CC {
		seeds = append(seeds, ad.Domain)
		cc[ad.Domain] = true
	}
	sim := run.Pipe.SimilarityScorer()
	cfg := BPConfig{ScoreThreshold: run.Pipe.SimThreshold(), MaxIterations: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BeliefPropagation(rep.Snapshot, nil, seeds, cc, sim, cfg)
	}
}

func BenchmarkFindAutomatedParallel(b *testing.B) {
	run := entFixture(b)
	reps := run.OperationReports()
	if len(reps) == 0 {
		b.Skip("no operation days")
	}
	det := run.Pipe.Detector()
	snap := reps[0].Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.FindAutomatedParallel(snap, 0)
	}
}

func BenchmarkHistorySaveLoad(b *testing.B) {
	run := entFixture(b)
	hist := run.Pipe.History()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := hist.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadHistory(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegressionFit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, p := 500, 8
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
			y[i] += x[i][j] * float64(j)
		}
		y[i] += rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regression.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
