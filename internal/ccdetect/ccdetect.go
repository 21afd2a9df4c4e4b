// Package ccdetect implements the paper's detector of C&C communication
// (§III-D, §IV-C): the dynamic-histogram periodicity test identifies rare
// domains receiving automated connections, a six-feature linear regression
// (trained against external-intelligence labels) scores how C&C-like each
// automated domain is, and domains above the threshold Tc are flagged as
// potential C&C — even when contacted by a single host.
//
// The package also provides the simplified LANL heuristic of §V-B, used
// when HTTP context and WHOIS data are unavailable: an automated domain is
// potential C&C when at least two distinct hosts contact it at similar
// times (within ten seconds).
package ccdetect

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/features"
	"repro/internal/histogram"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/regression"
)

// AutomatedDomain is one rare domain with at least one host showing
// automated (periodic) connections.
type AutomatedDomain struct {
	Domain   string
	Activity *profile.DomainActivity
	// AutoHosts lists, sorted, the hosts whose connection pattern is automated.
	AutoHosts []string
	// Verdicts holds the per-host periodicity analysis, parallel to
	// Activity.Hosts.
	Verdicts []histogram.Verdict
	// Features is filled by Score.
	Features features.CC
	// Score is the regression score; meaningful only after Score.
	Score float64
}

// Period returns the dominant beacon period (seconds) among the automated
// hosts, for reporting.
func (a *AutomatedDomain) Period() float64 {
	for _, v := range a.Verdicts {
		if v.Automated {
			return v.Period
		}
	}
	return 0
}

// Detector is the enterprise C&C detector.
type Detector struct {
	// Hist parameterizes the periodicity test (default: paper's W=10s,
	// JT=0.06 via histogram.DefaultConfig).
	Hist histogram.Config
	// Extractor supplies the C&C features.
	Extractor *features.Extractor
	// Model is the trained scoring regression; nil until Train.
	Model *regression.Model
	// WithAutoHosts keeps the AutoHosts feature in the model. The paper
	// drops it for collinearity with NoHosts, so the default is false.
	WithAutoHosts bool
	// Threshold is Tc: automated domains scoring at or above it are
	// labeled potential C&C (the paper explores 0.40-0.48, §VI-C).
	Threshold float64
}

// NewDetector returns a detector with the paper's default parameters.
func NewDetector(x *features.Extractor) *Detector {
	return &Detector{
		Hist:      histogram.DefaultConfig(),
		Extractor: x,
		Threshold: 0.4,
	}
}

// FindAutomatedParallel scans the day's rare destinations and returns every
// domain with at least one host whose connections are automated, sorted by
// domain name for determinism. The per-domain periodicity analysis fans out
// over a bounded worker pool (par.ForEachIndex); the output is identical
// (same domains, same order) for any worker count, only wall-clock differs.
// workers <= 0 uses GOMAXPROCS.
func (d *Detector) FindAutomatedParallel(s *profile.Snapshot, workers int) []*AutomatedDomain {
	rare := s.RareActivities()
	slots := make([]*AutomatedDomain, len(rare))
	par.ForEachIndex(len(rare), workers, func(i int) {
		slots[i] = analyzeActivity(rare[i], d.Hist)
	})
	return compact(slots)
}

// compact returns the non-nil slots, in order.
func compact(slots []*AutomatedDomain) []*AutomatedDomain {
	out := make([]*AutomatedDomain, 0, len(slots))
	for _, ad := range slots {
		if ad != nil {
			out = append(out, ad)
		}
	}
	return out
}

// analyzeActivity runs the periodicity test for every contacting host and
// returns nil when no host shows automated connections — the fate of nine
// rare domains in ten on a busy day, so nothing is allocated until a host
// does. A rare domain has fewer hosts than the popularity threshold (10 by
// default) and its verdicts wait in a stack array; append moves them to the
// heap for a caller with a wider threshold. The hosts are walked in their
// sorted order, so AutoHosts comes out sorted.
func analyzeActivity(da *profile.DomainActivity, cfg histogram.Config) *AutomatedDomain {
	var local [16]histogram.Verdict
	verdicts, auto := local[:0], 0
	for _, ha := range da.Hosts {
		v := histogram.AnalyzeTimes(ha.Times, cfg)
		verdicts = append(verdicts, v)
		if v.Automated {
			auto++
		}
	}
	if auto == 0 {
		return nil
	}
	ad := &AutomatedDomain{
		Domain:    da.Domain,
		Activity:  da,
		AutoHosts: make([]string, 0, auto),
		Verdicts:  slices.Clone(verdicts),
	}
	for i, v := range verdicts {
		if v.Automated {
			ad.AutoHosts = append(ad.AutoHosts, da.Hosts[i].Host)
		}
	}
	return ad
}

// FillFeaturesParallel extracts C&C features for a batch of automated
// domains and substitutes the batch average for DomAge/DomValidity where
// WHOIS was unparseable, as §VI-C prescribes. The per-domain extraction fans
// out over a bounded worker pool: each domain writes only its own Features
// field and the WHOIS averaging runs sequentially in slice order afterwards,
// so the result is identical for any worker count. workers <= 0 uses
// GOMAXPROCS.
func (d *Detector) FillFeaturesParallel(ads []*AutomatedDomain, day time.Time, workers int) {
	par.ForEachIndex(len(ads), workers, func(i int) {
		ads[i].Features = d.Extractor.CC(ads[i].Activity, len(ads[i].AutoHosts), day)
	})

	var sumAge, sumVal float64
	n := 0
	for _, ad := range ads {
		if ad.Features.HasWhois {
			sumAge += ad.Features.DomAge
			sumVal += ad.Features.DomValidity
			n++
		}
	}
	if n == 0 {
		return
	}
	avgAge, avgVal := sumAge/float64(n), sumVal/float64(n)
	for _, ad := range ads {
		if !ad.Features.HasWhois {
			ad.Features.DomAge = avgAge
			ad.Features.DomValidity = avgVal
		}
	}
}

// TrainingExample pairs a feature vector with its external-intelligence
// label: Reported is true when at least one scanner engine flags the
// domain at training time.
type TrainingExample struct {
	Domain   string
	Features features.CC
	Reported bool
}

// Train fits the scoring regression on labeled automated domains (the
// paper uses two weeks of labeled data) and installs it on the detector.
func (d *Detector) Train(examples []TrainingExample) (*regression.Model, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("ccdetect: no training examples")
	}
	x := make([][]float64, len(examples))
	y := make([]float64, len(examples))
	for i, ex := range examples {
		x[i] = ex.Features.Vector(d.WithAutoHosts)
		if ex.Reported {
			y[i] = 1
		}
	}
	m, err := regression.Fit(x, y)
	if errors.Is(err, regression.ErrSingular) {
		// A feature can be constant across a small calibration batch;
		// a tiny ridge penalty restores a usable fit.
		m, err = regression.FitRidge(x, y, 1e-6)
	}
	if err != nil {
		return nil, fmt.Errorf("ccdetect: train: %w", err)
	}
	d.Model = m
	return m, nil
}

// Score computes the regression score of one automated domain (features
// must already be filled). Without a model the score is zero.
func (d *Detector) Score(ad *AutomatedDomain) float64 {
	if d.Model == nil {
		return 0
	}
	v, err := d.Model.Predict(ad.Features.Vector(d.WithAutoHosts))
	if err != nil {
		return 0
	}
	ad.Score = v
	return v
}

// IsCC scores one rare domain without the §VI-C WHOIS-average substitution,
// so it can disagree with the day's C&C list. The pipelines pass core.CCSet
// instead; only the benchmark module's traced close still calls it.
func (d *Detector) IsCC(da *profile.DomainActivity, day time.Time) bool {
	ad := analyzeActivity(da, d.Hist)
	if ad == nil {
		return false
	}
	ad.Features = d.Extractor.CC(ad.Activity, len(ad.AutoHosts), day)
	return d.Score(ad) >= d.Threshold
}

// LANLDetector is the simplified C&C heuristic of §V-B for DNS-only data:
// an automated rare domain is potential C&C when at least two distinct
// hosts communicate with it at similar time periods.
type LANLDetector struct {
	// Hist parameterizes the periodicity test.
	Hist histogram.Config
	// SyncWindow is the cross-host alignment tolerance (paper: 10s).
	SyncWindow time.Duration
	// MinMatches is the minimum number of cross-host connection pairs that
	// must align within SyncWindow (default 3).
	MinMatches int
}

// NewLANLDetector returns the §V-B parameterization.
func NewLANLDetector() *LANLDetector {
	return &LANLDetector{
		Hist:       histogram.DefaultConfig(),
		SyncWindow: 10 * time.Second,
		MinMatches: 3,
	}
}

func (d *LANLDetector) minMatches() int {
	if d.MinMatches <= 0 {
		return 3
	}
	return d.MinMatches
}

// IsCC applies the heuristic to one rare domain's daily activity.
func (d *LANLDetector) IsCC(da *profile.DomainActivity, _ time.Time) bool {
	return d.synchronized(analyzeActivity(da, d.Hist))
}

// synchronized reports whether two automated hosts of an analysed domain
// (nil: none automated) line up in time, not merely share a period.
func (d *LANLDetector) synchronized(ad *AutomatedDomain) bool {
	if ad == nil || len(ad.AutoHosts) < 2 {
		return false
	}
	hosts := ad.Activity.Hosts
	for i, vi := range ad.Verdicts {
		if !vi.Automated {
			continue
		}
		for j := i + 1; j < len(ad.Verdicts); j++ {
			if ad.Verdicts[j].Automated &&
				countAligned(hosts[i].Times, hosts[j].Times, d.SyncWindow) >= d.minMatches() {
				return true
			}
		}
	}
	return false
}

// FindCCParallel scans a snapshot and returns the heuristic's C&C domains
// sorted by name, with the per-domain heuristic fanned out over a bounded
// worker pool (par.ForEachIndex); each rare domain is analysed once. The
// output is identical (same domains, same sorted order) for any worker
// count; only wall-clock differs. workers <= 0 uses GOMAXPROCS.
func (d *LANLDetector) FindCCParallel(s *profile.Snapshot, workers int) []*AutomatedDomain {
	rare := s.RareActivities()
	slots := make([]*AutomatedDomain, len(rare))
	par.ForEachIndex(len(rare), workers, func(i int) {
		if ad := analyzeActivity(rare[i], d.Hist); d.synchronized(ad) {
			slots[i] = ad
		}
	})
	return compact(slots)
}

// countAligned counts the elements of a (sorted) that have a counterpart in
// b (sorted) within w.
func countAligned(a, b []time.Time, w time.Duration) int {
	n := 0
	j := 0
	for _, ta := range a {
		for j < len(b) && b[j].Before(ta.Add(-w)) {
			j++
		}
		if j < len(b) && !b[j].After(ta.Add(w)) {
			n++
		}
	}
	return n
}
