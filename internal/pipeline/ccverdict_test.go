package pipeline_test

import (
	"testing"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/regression"
	"repro/internal/report"
	"repro/internal/whois"
)

// TestBeliefPropagationCCIsTheDaysList: belief propagation's Detect_C&C is
// the day's scored C&C list, with §VI-C's WHOIS-average substitution, and no
// second verdict reached without it. The day holds a WHOIS-less beacon whose
// raw DomAge of 0 scores at or above Tc, while the average of the day's
// WHOIS'd automated domains pulls it below. Its host also beacons to a young
// C&C domain (the no-hint seed) and visits an IOC (the SOC-hints seed), so
// both runs reach it as a candidate. Neither may label it C&C, and every C&C
// entry of the report carries its score and beacon period.
func TestBeliefPropagationCCIsTheDaysList(t *testing.T) {
	day := time.Date(2014, 3, 10, 0, 0, 0, 0, time.UTC)
	reg := whois.NewRegistry()
	for domain, age := range map[string]int{"young.example": 1, "old.example": 9} {
		reg.Add(whois.Record{
			Domain:     domain,
			Registered: day.AddDate(0, 0, -365*age),
			Expires:    day.AddDate(1, 0, 0),
		})
	}
	p := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CCThreshold: 0.4, Workers: 1}, reg,
		func(string, time.Time) bool { return false },
		func() []string { return []string{"ioc.example"} })

	// Train through the public calibration door (past two windows, so the
	// similarity side takes the additive scorer), then install a C&C model
	// that scores on DomAge alone: 1 − 0.2·years.
	var examples []ccdetect.TrainingExample
	for i := 0; i < 12; i++ {
		examples = append(examples, ccdetect.TrainingExample{
			Features: features.CC{
				NoHosts: float64(i%3) / 3, NoRef: float64(i%4) / 4, RareUA: float64(i%5) / 5,
				DomAge: float64(i % 7), DomValidity: float64(i%2) + 1, HasWhois: true,
			},
			Reported: i%2 == 0,
		})
	}
	if err := p.RestoreCalibration(pipeline.CalibrationState{
		CalDays: 2 * p.Config().CalibrationDays, Trained: true, CCExamples: examples,
	}); err != nil {
		t.Fatal(err)
	}
	p.Detector().Model = &regression.Model{Intercept: 1, Coef: []float64{0, 0, 0, -0.2, 0}}

	var visits []logs.Visit
	beacon := func(host, domain string, offset time.Duration) {
		for i := 0; i < 40; i++ {
			visits = append(visits, logs.Visit{
				Time: day.Add(8*time.Hour + offset + time.Duration(i)*10*time.Minute),
				Host: host, Domain: domain,
			})
		}
	}
	beacon("victim", "young.example", 0)
	beacon("victim", "nowhois.example", 2*time.Minute)
	beacon("poller", "old.example", 0)
	visits = append(visits, logs.Visit{Time: day.Add(7 * time.Hour), Host: "victim", Domain: "ioc.example"})

	snap := profile.NewSnapshot(day, visits, p.History(), p.Config().UnpopularThreshold)
	rep := p.ProcessSnapshot(day, snap, normalize.ProxyStats{Records: len(visits), Kept: len(visits)})
	if rep.Calibrating {
		t.Fatal("the installed pipeline still calibrates")
	}

	// The fixture's premise: nowhois.example is automated and scores at or
	// above Tc on its raw DomAge, but the day's average puts it below.
	var nowhois *ccdetect.AutomatedDomain
	for _, ad := range rep.Automated {
		if ad.Domain == "nowhois.example" {
			nowhois = ad
		}
	}
	if nowhois == nil || nowhois.Features.HasWhois {
		t.Fatalf("fixture: nowhois.example must be automated without WHOIS, automated = %v", rep.Automated)
	}
	f := nowhois.Features
	f.DomAge, f.DomValidity = 0, 0
	raw, _ := p.Detector().Model.Predict(f.Vector(p.Detector().WithAutoHosts))
	if raw < p.Detector().Threshold || nowhois.Score >= p.Detector().Threshold {
		t.Fatalf("fixture: raw score %v, substituted %v, want raw ≥ Tc %v > substituted",
			raw, nowhois.Score, p.Detector().Threshold)
	}
	onList := make(map[string]*ccdetect.AutomatedDomain)
	var list []string
	for _, ad := range rep.CC {
		onList[ad.Domain] = ad
		list = append(list, ad.Domain)
	}
	if len(list) != 1 || onList["young.example"] == nil {
		t.Fatalf("fixture: C&C list = %v, want [young.example]", list)
	}
	if rep.NoHint == nil || rep.SOCHints == nil {
		t.Fatalf("fixture: both modes must run, no-hint %v, SOC-hints %v", rep.NoHint, rep.SOCHints)
	}

	for mode, res := range map[string]*core.Result{"no-hint": rep.NoHint, "soc-hints": rep.SOCHints} {
		for _, d := range res.Detections {
			if d.Reason == core.ReasonCC && onList[d.Domain] == nil {
				t.Errorf("%s: %s labeled C&C but the day's C&C list is %v", mode, d.Domain, list)
			}
		}
	}
	// Step 1 still labels a listed domain it reaches: the IOC's host leads
	// the SOC-hints run to young.example.
	if d := rep.SOCHints.Detections; len(d) == 0 || d[0].Domain != "young.example" || d[0].Reason != core.ReasonCC {
		t.Errorf("SOC-hints detections %v, want young.example labeled C&C first", rep.SOCHints.Domains())
	}
	for _, e := range report.Build(rep).Domains {
		if e.Reason != core.ReasonCC.String() {
			continue
		}
		ad := onList[e.Domain]
		if ad == nil || e.Score != ad.Score || e.BeaconPeriodSeconds != ad.Period() || e.BeaconPeriodSeconds == 0 {
			t.Errorf("c&c entry %s: score %v, period %v; want the day's C&C score and beacon period",
				e.Domain, e.Score, e.BeaconPeriodSeconds)
		}
	}
}
