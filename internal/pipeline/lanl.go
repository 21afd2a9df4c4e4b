// Package pipeline wires the substrates into the two end-to-end systems
// the paper evaluates (Figure 1): a DNS pipeline for the LANL challenge
// (§V) and a web-proxy pipeline for the enterprise dataset (§VI). Each
// pipeline owns the behavioural history, performs the daily
// normalize → profile → detect → update cycle, and exposes per-day reports
// that the experiment drivers turn into the paper's tables and figures.
//
// Reports must not depend on execution schedule, worker count, or map
// iteration order; reprolint's maporder analyzer enforces the marker below.
//
//lint:deterministic
package pipeline

import (
	"time"

	"repro/internal/ccdetect"
	"repro/internal/core"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/profile"
	"repro/internal/scoring"
)

// LANL is the DNS-data pipeline of §V: third-level folding, the simplified
// two-host C&C heuristic, and the additive similarity scorer (the dataset
// carries no HTTP context or WHOIS data).
type LANL struct {
	hist   *profile.History
	cc     *ccdetect.LANLDetector
	scorer scoring.AdditiveScorer
	cfg    LANLConfig
}

// LANLConfig parameterizes the LANL pipeline.
type LANLConfig struct {
	// UnpopularThreshold is the rare-destination host threshold
	// (default 10).
	UnpopularThreshold int
	// ScoreThreshold is Ts for the additive scorer (default 0.25, §V-B).
	ScoreThreshold float64
	// MaxIterations bounds belief propagation (default 5, §V-C).
	MaxIterations int
	// Workers bounds the worker pool for the day-close stages (snapshot
	// aggregation, the day's C&C sweep, and the per-iteration similarity
	// scans of belief propagation). Results are identical for every value.
	// 0 uses GOMAXPROCS; 1 forces the sequential path.
	Workers int
}

func (c *LANLConfig) setDefaults() {
	if c.UnpopularThreshold == 0 {
		c.UnpopularThreshold = 10
	}
	if c.ScoreThreshold == 0 {
		c.ScoreThreshold = scoring.AdditiveThreshold
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 5
	}
}

// NewLANL returns a pipeline with an empty history.
func NewLANL(cfg LANLConfig) *LANL {
	cfg.setDefaults()
	return &LANL{
		hist:   profile.NewHistory(),
		cc:     ccdetect.NewLANLDetector(),
		scorer: scoring.AdditiveScorer{},
		cfg:    cfg,
	}
}

// History exposes the destination history (for inspection and tests).
func (p *LANL) History() *profile.History { return p.hist }

// LANLDayReport captures one processed day.
type LANLDayReport struct {
	Day       time.Time
	Stats     normalize.DNSStats
	NewCount  int
	RareCount int
	// Snapshot is the day's reduced view (kept for downstream analysis;
	// the history has already been updated).
	Snapshot *profile.Snapshot
	// CCDomains are the domains the no-hint heuristic flagged.
	CCDomains []string
	// Result is the belief propagation outcome (nil when no seeds
	// resolved).
	Result *core.Result
}

// Train ingests one training-month day: reduce, profile, update — no
// detection.
func (p *LANL) Train(day time.Time, recs []logs.DNSRecord) LANLDayReport {
	visits, stats := normalize.ReduceDNS(recs)
	snap := profile.NewSnapshotParallel(day, visits, p.hist, p.cfg.UnpopularThreshold, p.cfg.Workers)
	rep := LANLDayReport{
		Day: day, Stats: stats,
		NewCount: snap.NewDomains, RareCount: snap.RareCount(),
		Snapshot: snap,
	}
	snap.Commit(p.hist)
	return rep
}

// Process runs one challenge day. hintHosts are the analyst-provided
// compromised hosts (cases 1-3); when empty the no-hint flow runs: the
// C&C heuristic's domains are the seeds (case 4). Either way the heuristic
// runs once over the day, and its set is belief propagation's Detect_C&C.
func (p *LANL) Process(day time.Time, recs []logs.DNSRecord, hintHosts []string) LANLDayReport {
	visits, stats := normalize.ReduceDNS(recs)
	snap := profile.NewSnapshotParallel(day, visits, p.hist, p.cfg.UnpopularThreshold, p.cfg.Workers)
	rep := LANLDayReport{
		Day: day, Stats: stats,
		NewCount: snap.NewDomains, RareCount: snap.RareCount(),
		Snapshot: snap,
	}

	noHint := len(hintHosts) == 0
	ads := p.cc.FindCCParallel(snap, p.cfg.Workers)
	ccSet := make(core.CCSet, len(ads))
	for _, ad := range ads {
		ccSet[ad.Domain] = true
		if noHint {
			rep.CCDomains = append(rep.CCDomains, ad.Domain)
		}
	}

	// No-hint mode seeds with the heuristic's C&C domains (and so the hosts
	// contacting them).
	if len(hintHosts) > 0 || len(rep.CCDomains) > 0 {
		rep.Result = core.BeliefPropagation(snap, hintHosts, rep.CCDomains, ccSet, p.scorer, core.Config{
			ScoreThreshold: p.cfg.ScoreThreshold,
			MaxIterations:  p.cfg.MaxIterations,
			Workers:        p.cfg.Workers,
		})
		// In no-hint mode the seeds themselves are detections.
		if noHint {
			dets := make([]core.Detection, 0, len(ads)+len(rep.Result.Detections))
			for _, ad := range ads {
				dets = append(dets, core.Detection{Domain: ad.Domain, Reason: core.ReasonCC, Hosts: ad.Activity.HostNames()})
			}
			rep.Result.Detections = append(dets, rep.Result.Detections...)
		}
	}

	snap.Commit(p.hist)
	return rep
}
