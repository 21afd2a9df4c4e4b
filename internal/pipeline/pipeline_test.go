package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/intel"
	"repro/internal/profile"
	"repro/internal/whois"
)

// lanlHintIPs maps a campaign's hint host names to the IP identities used
// in the DNS visit stream.
func lanlHintIPs(g *gen.LANL, c *gen.Campaign) []string {
	out := make([]string, 0, len(c.HintHosts))
	for _, hn := range c.HintHosts {
		var idx int
		fmt.Sscanf(hn, "host%04d", &idx)
		out = append(out, g.HostIP(idx).String())
	}
	return out
}

func TestLANLPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day pipeline run")
	}
	g := gen.NewLANL(gen.LANLConfig{
		Seed: 7, Hosts: 60, Servers: 4, PopularDomains: 80,
		NewRarePerDay: 15, BenignAutoPerDay: 3, QueriesPerHostDay: 20,
	})
	p := NewLANL(LANLConfig{})

	// Profiling month.
	for day := 0; day < g.Config().TrainingDays; day++ {
		p.Train(g.DayTime(day), g.Day(day))
	}
	if p.History().DomainCount() == 0 {
		t.Fatal("history empty after training")
	}

	totalTP, totalFP, totalFN := 0, 0, 0
	campaignsWithDetections := 0
	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		camps := g.Truth.CampaignsOn(date)
		if len(camps) == 0 {
			// A quiet day must not produce an avalanche of detections.
			rep := p.Process(date, g.Day(day), nil)
			if rep.Result != nil && len(rep.Result.Detections) > 3 {
				t.Errorf("%s: %d detections on a quiet day", date.Format("01-02"), len(rep.Result.Detections))
			}
			continue
		}
		c := camps[0]
		rep := p.Process(date, g.Day(day), lanlHintIPs(g, c))
		if rep.Result == nil {
			t.Errorf("%s (case %d): no result", c.ID, c.Case)
			continue
		}
		detected := map[string]bool{}
		for _, d := range rep.Result.Detections {
			detected[d.Domain] = true
		}
		tp, fn := 0, 0
		for _, d := range c.Domains() {
			if detected[d] {
				tp++
			} else {
				fn++
			}
		}
		fp := len(detected) - tp
		totalTP += tp
		totalFP += fp
		totalFN += fn
		if tp > 0 {
			campaignsWithDetections++
		}
		t.Logf("%s case %d: tp=%d fp=%d fn=%d (domains %d)", c.ID, c.Case, tp, fp, fn, len(c.Domains()))
	}

	if campaignsWithDetections < 18 {
		t.Errorf("detections in only %d/20 campaigns", campaignsWithDetections)
	}
	tdr := float64(totalTP) / float64(totalTP+totalFP)
	fnr := float64(totalFN) / float64(totalTP+totalFN)
	if tdr < 0.85 {
		t.Errorf("TDR = %.2f, want >= 0.85 (paper: 0.98)", tdr)
	}
	if fnr > 0.25 {
		t.Errorf("FNR = %.2f, want <= 0.25 (paper: 0.06)", fnr)
	}
	t.Logf("overall: TP=%d FP=%d FN=%d TDR=%.3f FNR=%.3f", totalTP, totalFP, totalFN, tdr, fnr)
}

func TestEnterprisePipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day pipeline run")
	}
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 11, TrainingDays: 6, OperationDays: 16,
		Hosts: 60, PopularDomains: 80, NewRarePerDay: 20,
		BenignAutoPerDay: 4, Campaigns: 14,
	})
	reg := whois.NewRegistry()
	PopulateRef := e.DayTime(e.NumDays())
	gen.PopulateWHOIS(reg, e.Truth, e.RareRegistrations(), PopulateRef)
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, e.Truth, gen.OracleConfig{Seed: 11})

	p := NewEnterprise(EnterpriseConfig{CalibrationDays: 7},
		reg, oracle.Reported, oracle.IOCs)

	for day := 0; day < e.Config().TrainingDays; day++ {
		p.Train(e.DayTime(day), e.Day(day), e.DHCPMap(day))
	}

	detectedNoHint := map[string]bool{}
	detectedSOC := map[string]bool{}
	benignFlagged := 0
	for day := e.Config().TrainingDays; day < e.NumDays(); day++ {
		rep := p.Process(e.DayTime(day), e.Day(day), e.DHCPMap(day))
		if rep.Calibrating {
			continue
		}
		for _, d := range rep.NoHintDomains() {
			detectedNoHint[d] = true
			if !e.Truth.IsMalicious(d) {
				benignFlagged++
			}
		}
		for _, d := range rep.SOCHintDomains() {
			detectedSOC[d] = true
		}
	}
	if !p.Trained() {
		t.Fatal("pipeline never finished calibration")
	}

	// Count how many post-calibration campaigns were (partially) caught.
	calEnd := e.DayTime(e.Config().TrainingDays + 7)
	var activeCampaigns, caught int
	for _, c := range e.Truth.Campaigns {
		if c.Day.Before(calEnd) {
			continue
		}
		activeCampaigns++
		for _, d := range c.Domains() {
			if detectedNoHint[d] || detectedSOC[d] {
				caught++
				break
			}
		}
	}
	if activeCampaigns == 0 {
		t.Fatal("no campaigns after calibration; adjust test config")
	}
	if caught*2 < activeCampaigns {
		t.Errorf("caught %d/%d campaigns", caught, activeCampaigns)
	}
	t.Logf("caught %d/%d campaigns; no-hint detections=%d soc=%d benign-flagged=%d",
		caught, activeCampaigns, len(detectedNoHint), len(detectedSOC), benignFlagged)

	// Precision: most flagged domains should be truly malicious.
	mal := 0
	for d := range detectedNoHint {
		if e.Truth.IsMalicious(d) {
			mal++
		}
	}
	if len(detectedNoHint) > 0 && mal*100 < len(detectedNoHint)*60 {
		t.Errorf("no-hint precision %d/%d below 60%%", mal, len(detectedNoHint))
	}
}

func TestEnterprisePipelineCalibrationGate(t *testing.T) {
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 12, TrainingDays: 2, OperationDays: 3,
		Hosts: 20, PopularDomains: 30, NewRarePerDay: 5,
		BenignAutoPerDay: 2, Campaigns: 2,
	})
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, e.Truth, e.RareRegistrations(), e.DayTime(e.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, e.Truth, gen.OracleConfig{Seed: 12})

	p := NewEnterprise(EnterpriseConfig{CalibrationDays: 99}, reg, oracle.Reported, oracle.IOCs)
	p.Train(e.DayTime(0), e.Day(0), e.DHCPMap(0))
	rep := p.Process(e.DayTime(2), e.Day(2), e.DHCPMap(2))
	if !rep.Calibrating {
		t.Error("day inside calibration window must be marked Calibrating")
	}
	if rep.CC != nil || rep.NoHint != nil || rep.SOCHints != nil {
		t.Error("no detection results during calibration")
	}
	if p.Trained() {
		t.Error("model must not be trained inside the window")
	}
}

func TestEnterprisePipelineHistoryRestart(t *testing.T) {
	// A restarted deployment that restores its persisted history must see
	// the same rare destinations as one that never stopped.
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 17, TrainingDays: 4, OperationDays: 4,
		Hosts: 25, PopularDomains: 40, NewRarePerDay: 6,
		BenignAutoPerDay: 2, Campaigns: 2,
	})
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, e.Truth, e.RareRegistrations(), e.DayTime(e.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, e.Truth, gen.OracleConfig{Seed: 17})

	mk := func(hist *profile.History) *Enterprise {
		if hist == nil {
			return NewEnterprise(EnterpriseConfig{CalibrationDays: 99}, reg, oracle.Reported, oracle.IOCs)
		}
		return NewEnterpriseWithHistory(EnterpriseConfig{CalibrationDays: 99}, hist, reg, oracle.Reported, oracle.IOCs)
	}
	continuous := mk(nil)
	for day := 0; day < e.Config().TrainingDays; day++ {
		continuous.Train(e.DayTime(day), e.Day(day), e.DHCPMap(day))
	}

	// "Restart": persist the history after training and restore it.
	var buf bytes.Buffer
	if err := continuous.History().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := profile.LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := mk(restored)

	for day := e.Config().TrainingDays; day < e.NumDays(); day++ {
		a := continuous.Process(e.DayTime(day), e.Day(day), e.DHCPMap(day))
		b := resumed.Process(e.DayTime(day), e.Day(day), e.DHCPMap(day))
		if a.RareCount != b.RareCount || a.NewCount != b.NewCount || len(a.Automated) != len(b.Automated) {
			t.Errorf("day %d diverges after restart: continuous{rare=%d new=%d} resumed{rare=%d new=%d}",
				day, a.RareCount, a.NewCount, b.RareCount, b.NewCount)
		}
	}
}

func TestLANLPipelineNoHintSeedsReported(t *testing.T) {
	g := gen.NewLANL(gen.LANLConfig{
		Seed: 13, Hosts: 50, Servers: 3, PopularDomains: 60,
		NewRarePerDay: 10, QueriesPerHostDay: 15,
	})
	p := NewLANL(LANLConfig{})
	for day := 0; day < g.Config().TrainingDays; day++ {
		p.Train(g.DayTime(day), g.Day(day))
	}
	// Find the case-4 campaign day (3/22).
	var c4 *gen.Campaign
	for _, c := range g.Truth.Campaigns {
		if c.Case == 4 {
			c4 = c
		}
	}
	// Process intermediate days so history stays fresh.
	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		if !date.Equal(c4.Day) {
			p.Train(date, g.Day(day))
			continue
		}
		rep := p.Process(date, g.Day(day), nil)
		if len(rep.CCDomains) == 0 {
			t.Fatal("case 4: C&C heuristic found nothing")
		}
		foundCC := false
		for _, d := range rep.CCDomains {
			if d == c4.CCDomain {
				foundCC = true
			}
		}
		if !foundCC {
			t.Errorf("case 4: C&C domain %s not among heuristic seeds %v", c4.CCDomain, rep.CCDomains)
		}
		if rep.Result == nil {
			t.Fatal("case 4: no belief propagation result")
		}
		detected := map[string]bool{}
		for _, d := range rep.Result.Detections {
			detected[d.Domain] = true
		}
		if !detected[c4.CCDomain] {
			t.Error("case 4: seeds must appear among detections in no-hint mode")
		}
		return
	}
	t.Fatal("case 4 day never processed")
}
