package repro_test

// Black-box tests of the public API: everything a downstream user needs
// must be reachable through package repro alone.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// Generate a small synthetic enterprise dataset.
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 1, TrainingDays: 3, OperationDays: 9,
		Hosts: 40, PopularDomains: 50, NewRarePerDay: 10,
		BenignAutoPerDay: 3, Campaigns: 6,
	})

	// Simulated externals.
	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: 1})

	// Pipeline: train, calibrate, operate.
	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 4},
		reg, oracle.Reported, oracle.IOCs)
	for day := 0; day < g.Config().TrainingDays; day++ {
		p.Train(g.DayTime(day), g.Day(day), g.DHCPMap(day))
	}
	detections := 0
	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		rep := p.Process(g.DayTime(day), g.Day(day), g.DHCPMap(day))
		detections += len(rep.NoHintDomains()) + len(rep.SOCHintDomains())
	}
	if !p.Trained() {
		t.Fatal("pipeline did not calibrate")
	}
	if detections == 0 {
		t.Error("no detections through the public API flow")
	}
}

func TestPublicPeriodicityAPI(t *testing.T) {
	base := time.Date(2014, 2, 1, 9, 0, 0, 0, time.UTC)
	var times []time.Time
	for i := 0; i < 12; i++ {
		times = append(times, base.Add(time.Duration(i)*10*time.Minute))
	}
	v := repro.AnalyzeTimes(times, repro.DefaultHistogramConfig())
	if !v.Automated || v.Period != 600 {
		t.Errorf("verdict = %+v", v)
	}
}

func TestPublicFoldAndReduce(t *testing.T) {
	if repro.FoldDomain("news.nbc.com", 2) != "nbc.com" {
		t.Error("FoldDomain")
	}
	visits, stats := repro.ReduceDNS([]repro.DNSRecord{})
	if len(visits) != 0 || stats.Records != 0 {
		t.Error("empty reduce")
	}
}

func TestPublicLANLChallenge(t *testing.T) {
	if testing.Short() {
		t.Skip("full challenge run")
	}
	run := repro.RunLANLChallenge(repro.ScaleSmall, 33)
	if len(run.ChallengeReports) != 20 {
		t.Fatalf("challenge reports = %d, want 20", len(run.ChallengeReports))
	}
}

func TestPublicClusteringAPI(t *testing.T) {
	infos := []repro.ClusterDomainInfo{
		{Domain: "a.ru", Paths: []string{"/logo.gif?"}},
		{Domain: "b.in", Paths: []string{"/logo.gif?"}},
	}
	clusters := repro.FindClusters(infos)
	if len(clusters) != 1 || clusters[0].Kind != repro.ClusterURLPattern {
		t.Errorf("clusters = %+v", clusters)
	}
	if !repro.LooksDGA("f0371288e0a20a541328") || repro.LooksDGA("wikipedia") {
		t.Error("LooksDGA facade broken")
	}
}

func TestPublicHistoryPersistence(t *testing.T) {
	h := repro.NewHistory()
	h.UpdateDomains(time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), []string{"x.com"})
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SeenDomain("x.com") {
		t.Error("persistence round trip lost domain")
	}
}

func TestPublicFlowAPI(t *testing.T) {
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 2, TrainingDays: 1, OperationDays: 1,
		Hosts: 10, PopularDomains: 20, NewRarePerDay: 3, Campaigns: 1,
	})
	visits, stats := repro.ReduceFlows(g.FlowDay(0), g.DHCPMap(0))
	if len(visits) == 0 || stats.Kept == 0 {
		t.Fatalf("flow reduction empty: %+v", stats)
	}
}

func TestPublicBatchAndReportAPI(t *testing.T) {
	// datagen-format dataset written through the facade types, consumed by
	// the batch runner, summarized as a SOC report.
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 3, TrainingDays: 2, OperationDays: 5,
		Hosts: 25, PopularDomains: 30, NewRarePerDay: 6,
		BenignAutoPerDay: 2, Campaigns: 3,
	})
	dir := t.TempDir()
	for day := 0; day < g.NumDays(); day++ {
		date := g.DayTime(day).Format("2006-01-02")
		f, err := os.Create(filepath.Join(dir, "proxy-"+date+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		w := repro.NewProxyWriter(f)
		for _, r := range g.Day(day) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		leases := map[string]string{}
		for ip, host := range g.DHCPMap(day) {
			leases[ip.String()] = host
		}
		data, _ := json.Marshal(leases)
		if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: 3})
	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 2},
		reg, oracle.Reported, oracle.IOCs)

	reports, err := repro.RunEnterpriseBatches(dir, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		daily := repro.BuildDailyReport(rep)
		var buf bytes.Buffer
		if err := daily.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatal("report is not valid JSON")
		}
	}
}

func ExampleBeliefPropagation() {
	day := time.Date(2014, 2, 10, 0, 0, 0, 0, time.UTC)
	hist := repro.NewHistory()

	// One compromised host beacons to a C&C domain every 10 minutes and
	// touched a delivery domain moments before the implant came up.
	var visits []repro.Visit
	for i := 0; i < 20; i++ {
		visits = append(visits, repro.Visit{
			Time: day.Add(10*time.Hour + time.Duration(i)*10*time.Minute),
			Host: "hostA", Domain: "evil-cc.ru",
		})
		visits = append(visits, repro.Visit{
			Time: day.Add(10*time.Hour + 2*time.Second + time.Duration(i)*10*time.Minute),
			Host: "hostB", Domain: "evil-cc.ru",
		})
	}
	visits = append(visits, repro.Visit{
		Time: day.Add(10*time.Hour - 90*time.Second),
		Host: "hostA", Domain: "payload-drop.ru",
	})

	snap := repro.NewSnapshot(day, visits, hist, 10)
	res := repro.BeliefPropagation(snap, []string{"hostA"}, nil,
		repro.NewLANLCCDetector(), repro.AdditiveScorer{},
		repro.BPConfig{ScoreThreshold: 0.25, MaxIterations: 5})

	for _, d := range res.Detections {
		fmt.Printf("%s via %s\n", d.Domain, d.Reason)
	}
	fmt.Printf("compromised: %v\n", res.Hosts)
	// Output:
	// evil-cc.ru via c&c
	// payload-drop.ru via similarity
	// compromised: [hostA hostB]
}
