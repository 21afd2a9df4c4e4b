package pipeline

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/profile"
	"repro/internal/scoring"
	"repro/internal/whois"
)

// EnterpriseConfig parameterizes the web-proxy pipeline of §VI.
type EnterpriseConfig struct {
	// UnpopularThreshold is the rare-destination host threshold
	// (default 10).
	UnpopularThreshold int
	// CCThreshold is Tc for labeling automated domains as C&C. Zero (the
	// default) selects the threshold from the calibration score
	// distribution by maximizing TPR-FPR — the paper likewise picks Tc
	// "based on the model" from the training tradeoff curve (§IV-C,
	// Figure 5); its published operating point is 0.40.
	CCThreshold float64
	// SimThreshold is Ts for belief propagation. Zero (the default)
	// selects it from the calibration similarity-score distribution the
	// same way Tc is selected; the paper's published operating points
	// sweep 0.33-0.85 (§VI-C/D).
	SimThreshold float64
	// MaxIterations bounds belief propagation (default 10 — "configurable
	// according to the SOC's processing capacity").
	MaxIterations int
	// CalibrationDays is the number of operation days whose automated
	// domains are collected (with intelligence labels) before the
	// regressions are first fit; the paper uses two weeks (default 14).
	// While the examples are too few to fit, calibration continues.
	CalibrationDays int
	// LabelLagDays is how far in the future the intelligence source is
	// queried when labeling calibration data — the paper labels February
	// traffic with VirusTotal results gathered well after the fact
	// (default 90, matching its three-month validation delay).
	LabelLagDays int
	// Workers bounds the worker pool the day-close stages fan out on:
	// snapshot aggregation, periodicity profiling, feature extraction, and
	// the per-iteration Compute_SimScore sweep of belief propagation.
	// Reports are byte-identical for every value — the parallel stages
	// merge in deterministic order. 0 (the default) uses GOMAXPROCS; 1
	// forces the sequential path.
	Workers int
}

func (c *EnterpriseConfig) setDefaults() {
	if c.UnpopularThreshold == 0 {
		c.UnpopularThreshold = 10
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 10
	}
	if c.CalibrationDays == 0 {
		c.CalibrationDays = 14
	}
	if c.LabelLagDays == 0 {
		c.LabelLagDays = 90
	}
}

// Enterprise is the full web-proxy pipeline: profiling, regression
// calibration against external-intelligence labels, the C&C detector, and
// belief propagation in both modes.
type Enterprise struct {
	cfg       EnterpriseConfig
	hist      *profile.History
	extractor *features.Extractor
	detector  *ccdetect.Detector
	simScorer core.SimilarityScorer

	// Reported labels a domain at a point in time (the simulated
	// VirusTotal query used to build regression labels).
	Reported func(domain string, t time.Time) bool
	// IOCs returns the SOC's current IOC list (seeds for SOC-hints mode).
	IOCs func() []string

	calDays      int
	ccExamples   []ccdetect.TrainingExample
	simExamples  []scoring.SimilarityExample
	trained      bool
	simThreshold float64
}

// NewEnterprise builds the pipeline around a WHOIS source and the two
// intelligence hooks, starting from an empty behavioural history.
func NewEnterprise(cfg EnterpriseConfig, reg *whois.Registry,
	reported func(string, time.Time) bool, iocs func() []string) *Enterprise {
	return NewEnterpriseWithHistory(cfg, profile.NewHistory(), reg, reported, iocs)
}

// NewEnterpriseWithHistory builds the pipeline around a previously
// persisted behavioural history (see profile.History.Save/LoadHistory), so
// a restarted deployment resumes daily operation without re-profiling the
// bootstrap month.
func NewEnterpriseWithHistory(cfg EnterpriseConfig, hist *profile.History, reg *whois.Registry,
	reported func(string, time.Time) bool, iocs func() []string) *Enterprise {
	cfg.setDefaults()
	x := &features.Extractor{Hist: hist, Whois: reg, UARareThreshold: cfg.UnpopularThreshold}
	det := ccdetect.NewDetector(x)
	if cfg.CCThreshold != 0 {
		det.Threshold = cfg.CCThreshold
	}
	return &Enterprise{
		cfg:       cfg,
		hist:      hist,
		extractor: x,
		detector:  det,
		Reported:  reported,
		IOCs:      iocs,
	}
}

// History exposes the behavioural history.
func (p *Enterprise) History() *profile.History { return p.hist }

// Detector exposes the C&C detector (e.g. to inspect the trained model).
func (p *Enterprise) Detector() *ccdetect.Detector { return p.detector }

// SimilarityScorer exposes the similarity scorer in use: the trained
// regression scorer, or the additive fallback when calibration data was too
// scarce for a regression (the paper's own LANL strategy, §V-B). It is nil
// before calibration completes.
func (p *Enterprise) SimilarityScorer() core.SimilarityScorer { return p.simScorer }

// Trained reports whether both regressions have been fit.
func (p *Enterprise) Trained() bool { return p.trained }

// EnterpriseDayReport captures one processed day.
type EnterpriseDayReport struct {
	Day       time.Time
	Stats     normalize.ProxyStats
	NewCount  int
	RareCount int
	Snapshot  *profile.Snapshot
	// Automated lists every rare domain with automated connections
	// (scored once the model is trained).
	Automated []*ccdetect.AutomatedDomain
	// CC is the subset of Automated at or above Tc.
	CC []*ccdetect.AutomatedDomain
	// NoHint is the belief propagation result seeded by CC (nil before
	// training or when CC is empty).
	NoHint *core.Result
	// SOCHints is the belief propagation result seeded by the IOC domains
	// present in today's traffic (nil when none resolve).
	SOCHints *core.Result
	// Calibrating is true while the day only contributed training labels.
	Calibrating bool
}

// NoHintDomains returns the combined no-hint detections: C&C seeds plus
// belief propagation expansion, in order.
func (r *EnterpriseDayReport) NoHintDomains() []string {
	var out []string
	for _, ad := range r.CC {
		out = append(out, ad.Domain)
	}
	if r.NoHint != nil {
		out = append(out, r.NoHint.Domains()...)
	}
	return out
}

// SOCHintDomains returns the SOC-hints detections (seed IOCs excluded, as
// in §VI-B).
func (r *EnterpriseDayReport) SOCHintDomains() []string {
	if r.SOCHints == nil {
		return nil
	}
	return r.SOCHints.Domains()
}

// Train ingests one profiling-month day: reduce, profile, update.
func (p *Enterprise) Train(day time.Time, recs []logs.ProxyRecord, leases map[netip.Addr]string) EnterpriseDayReport {
	visits, stats := normalize.ReduceProxy(recs, leases)
	snap := p.stageSnapshot(day, visits)
	rep := p.TrainSnapshot(day, snap, stats)
	snap.Commit(p.hist)
	return rep
}

// TrainSnapshot is Train for callers that already hold the day's snapshot —
// the streaming engine maintains per-shard partial snapshots during the day
// and classifies them at rollover. The snapshot must have been classified
// against this pipeline's history with every earlier day committed (the
// engine's serialized day-closes guarantee it). It does not commit the day:
// the caller calls snap.Commit with the pipeline's History before the next
// day is classified — the engine does so after publishing the day's report,
// which only tomorrow's classification needs the commit for.
func (p *Enterprise) TrainSnapshot(day time.Time, snap *profile.Snapshot, stats normalize.ProxyStats) EnterpriseDayReport {
	return stageAssemble(day, stats, snap)
}

// Process runs one operation day: until the models are fit it collects
// labeled examples; afterwards it detects in both modes. The day is committed
// to the history.
func (p *Enterprise) Process(day time.Time, recs []logs.ProxyRecord, leases map[netip.Addr]string) EnterpriseDayReport {
	visits, stats := normalize.ReduceProxy(recs, leases)
	snap := p.stageSnapshot(day, visits)
	rep := p.ProcessSnapshot(day, snap, stats)
	snap.Commit(p.hist)
	return rep
}

// ---- Day-close stages ----
//
// Process is the composition of pure stages — snapshot (per-domain
// aggregation, rare selection), detect (periodicity profiling + feature
// extraction), score (Tc filter), propagate (Algorithm 1 in both modes),
// and report assembly. Each stage reads the pipeline's models and history
// but mutates nothing, so the stages fan out internally on the Workers
// pool and are testable in isolation; only the calibration bookkeeping and
// the final Snapshot.Commit write pipeline state.

// stageSnapshot builds the day's reduced view: per-domain activity
// aggregation and rare-destination selection against the history,
// partitioned over the worker pool with a deterministic ordered merge.
//
//lint:pure
func (p *Enterprise) stageSnapshot(day time.Time, visits []logs.Visit) *profile.Snapshot {
	return profile.NewSnapshotParallel(day, visits, p.hist, p.cfg.UnpopularThreshold, p.cfg.Workers)
}

// stageDetect runs the periodicity test over every rare domain and fills
// the C&C features of the automated ones, both fanned over the given pool.
//
//lint:pure
func (p *Enterprise) stageDetect(snap *profile.Snapshot, workers int) []*ccdetect.AutomatedDomain {
	ads := p.detector.FindAutomatedParallel(snap, workers)
	p.detector.FillFeaturesParallel(ads, snap.Day, workers)
	return ads
}

// stageScore labels the automated domains scoring at or above Tc as
// potential C&C, ordered by descending score, then by domain. It requires a
// trained model.
//
//lint:pure
func (p *Enterprise) stageScore(automated []*ccdetect.AutomatedDomain) []*ccdetect.AutomatedDomain {
	var cc []*ccdetect.AutomatedDomain
	for _, ad := range automated {
		if p.detector.Score(ad) >= p.detector.Threshold {
			cc = append(cc, ad)
		}
	}
	sort.Slice(cc, func(i, j int) bool {
		if cc[i].Score != cc[j].Score {
			return cc[i].Score > cc[j].Score
		}
		return cc[i].Domain < cc[j].Domain
	})
	return cc
}

// stagePropagate runs belief propagation in both deployment modes: no-hint
// (seeded by the detected C&C domains) and SOC-hints (seeded by the IOC
// domains present in today's rare traffic). Either result is nil when its
// seed set is empty. Both runs take the scored C&C list as Detect_C&C.
//
//lint:pure
func (p *Enterprise) stagePropagate(snap *profile.Snapshot, cc []*ccdetect.AutomatedDomain, workers int) (noHint, socHints *core.Result) {
	bpCfg := core.Config{
		ScoreThreshold: p.simThreshold,
		MaxIterations:  p.cfg.MaxIterations,
		Workers:        workers,
	}

	ccSet := make(core.CCSet, len(cc))
	var seedDomains []string
	for _, ad := range cc {
		ccSet[ad.Domain] = true
		seedDomains = append(seedDomains, ad.Domain)
	}
	if len(cc) > 0 {
		noHint = core.BeliefPropagation(snap, nil, seedDomains, ccSet, p.simScorer, bpCfg)
	}

	if p.IOCs != nil {
		var seeds []string
		for _, ioc := range p.IOCs() {
			if _, ok := snap.Rare[ioc]; ok {
				seeds = append(seeds, ioc)
			}
		}
		sort.Strings(seeds)
		if len(seeds) > 0 {
			socHints = core.BeliefPropagation(snap, nil, seeds, ccSet, p.simScorer, bpCfg)
		}
	}
	return noHint, socHints
}

// stageAssemble builds the day report skeleton from the snapshot.
//
//lint:pure
func stageAssemble(day time.Time, stats normalize.ProxyStats, snap *profile.Snapshot) EnterpriseDayReport {
	return EnterpriseDayReport{
		Day: day, Stats: stats,
		NewCount: snap.NewDomains, RareCount: snap.RareCount(),
		Snapshot: snap,
	}
}

// ProcessSnapshot is Process with the snapshot stage prebuilt and without
// the commit; see TrainSnapshot for the history contract. It is
// PreviewSnapshot at the pipeline's own Workers plus, while the day is
// calibrating, the calibration bookkeeping.
//
// From the CalibrationDays-th day on, every close tries to fit the models on
// the examples collected so far. A fit that cannot be made yet — too few
// labeled examples for the C&C regression, or for the similarity regression
// within the first two windows — leaves the day Calibrating, and the next
// close refits with that day's examples added: the pipeline calibrates until
// the data suffices instead of failing the day.
func (p *Enterprise) ProcessSnapshot(day time.Time, snap *profile.Snapshot, stats normalize.ProxyStats) EnterpriseDayReport {
	rep := p.PreviewSnapshot(day, snap, stats, p.cfg.Workers)
	if rep.Calibrating {
		p.collectExamples(snap, rep.Automated, day)
		p.calDays++
		if p.calDays >= p.cfg.CalibrationDays {
			_ = p.fitModels() // on failure, still calibrating
		}
	}
	return rep
}

// PreviewSnapshot runs the pure day-close stages over a provisional mid-day
// snapshot — detect, score, propagate, assemble — and nothing else: no
// calibration bookkeeping, no history commit, no model mutation. A close
// runs it through ProcessSnapshot, which adds the bookkeeping; the streaming
// engine's live preview calls it directly on a clone of the open day's
// partial builders, for the same verdicts a rollover at this instant would
// publish without perturbing the real rollover. Before the models are
// trained the report carries the automated domains only, with Calibrating
// set, mirroring what a real close of the day would report.
//
// The caller must guarantee no day is being processed meanwhile (the engine
// holds its commit gate read-locked across the call, and a day-close takes
// the write side); concurrent PreviewSnapshot calls are safe because every
// stage only reads pipeline state. workers bounds the stage fan-out
// independently of the pipeline's own Workers setting; 0 uses GOMAXPROCS.
//
//lint:pure
func (p *Enterprise) PreviewSnapshot(day time.Time, snap *profile.Snapshot, stats normalize.ProxyStats, workers int) EnterpriseDayReport {
	rep := stageAssemble(day, stats, snap)
	rep.Automated = p.stageDetect(snap, workers)
	if !p.trained {
		rep.Calibrating = true
		return rep
	}
	rep.CC = p.stageScore(rep.Automated)
	rep.NoHint, rep.SOCHints = p.stagePropagate(snap, rep.CC, workers)
	return rep
}

// collectExamples harvests labeled training data from a calibration day:
// every automated rare domain becomes a C&C example, and the rare
// (non-automated) domains contacted by hosts of confirmed C&C domains
// become similarity examples relative to those confirmed domains (§VI-A).
func (p *Enterprise) collectExamples(snap *profile.Snapshot, automated []*ccdetect.AutomatedDomain, day time.Time) {
	if p.Reported == nil {
		return
	}
	labelTime := day.AddDate(0, 0, p.cfg.LabelLagDays)
	autoSet := make(map[string]bool, len(automated))
	var confirmed []features.Labeled
	hostsOfConfirmed := make(map[string]bool)
	for _, ad := range automated {
		autoSet[ad.Domain] = true
		reported := p.Reported(ad.Domain, labelTime)
		p.ccExamples = append(p.ccExamples, ccdetect.TrainingExample{
			Domain:   ad.Domain,
			Features: ad.Features,
			Reported: reported,
		})
		if reported {
			confirmed = append(confirmed, features.LabeledFromActivity(ad.Activity))
			for _, ha := range ad.Activity.Hosts {
				hostsOfConfirmed[ha.Host] = true
			}
		}
	}
	if len(confirmed) == 0 {
		return
	}
	seen := make(map[string]bool)
	confirmedHosts := make([]string, 0, len(hostsOfConfirmed))
	for h := range hostsOfConfirmed {
		confirmedHosts = append(confirmedHosts, h)
	}
	sort.Strings(confirmedHosts) // deterministic example order => bit-stable fits
	for _, h := range confirmedHosts {
		for _, d := range snap.HostRare(h) {
			if seen[d] || autoSet[d] {
				continue
			}
			seen[d] = true
			da := snap.Rare[d]
			p.simExamples = append(p.simExamples, scoring.SimilarityExample{
				Domain:   d,
				Features: p.extractor.Similarity(da, confirmed, day),
				Reported: p.Reported(d, labelTime),
			})
		}
	}
	// The compromised-host neighbourhood alone yields few, positive-heavy
	// examples at moderate data volumes; pad the training set with rare
	// domains of *uncompromised* hosts, which are natural negatives (no
	// shared hosts, no timing correlation, no IP proximity).
	padded := 0
	for _, da := range snap.RareActivities() {
		if padded >= 30 {
			break
		}
		d := da.Domain
		if seen[d] || autoSet[d] {
			continue
		}
		touchesConfirmed := false
		for _, ha := range da.Hosts {
			if hostsOfConfirmed[ha.Host] {
				touchesConfirmed = true
				break
			}
		}
		if touchesConfirmed {
			continue
		}
		padded++
		p.simExamples = append(p.simExamples, scoring.SimilarityExample{
			Domain:   d,
			Features: p.extractor.Similarity(da, confirmed, day),
			Reported: p.Reported(d, labelTime),
		})
	}
}

// fitModels trains both regressions from the collected examples. When the
// similarity training set is too small for a regression — the condition
// the paper hits on the LANL data — the additive scorer of §V-B is
// installed instead, so detection still runs.
func (p *Enterprise) fitModels() error {
	if _, err := p.detector.Train(p.ccExamples); err != nil {
		return fmt.Errorf("C&C model: %w", err)
	}
	if p.cfg.CCThreshold == 0 {
		if thr, ok := selectCCThreshold(p.detector, p.ccExamples); ok {
			p.detector.Threshold = thr
		}
	}
	sim, err := scoring.TrainSimilarity(p.extractor, p.simExamples, false)
	if err != nil {
		if p.calDays < 2*p.cfg.CalibrationDays {
			return fmt.Errorf("similarity model: %w", err)
		}
		p.simScorer = scoring.AdditiveScorer{}
		p.simThreshold = scoring.AdditiveThreshold
		if p.cfg.SimThreshold != 0 {
			p.simThreshold = p.cfg.SimThreshold
		}
		p.trained = true
		return nil
	}
	p.simScorer = sim
	p.simThreshold = p.cfg.SimThreshold
	if p.simThreshold == 0 {
		if thr, ok := selectSimThreshold(sim); ok {
			p.simThreshold = thr
		} else {
			p.simThreshold = 0.33 // the paper's most inclusive sweep point
		}
	}
	p.trained = true
	return nil
}

// selectSimThreshold picks Ts from the similarity calibration scores the
// same way selectCCThreshold picks Tc.
func selectSimThreshold(sc *scoring.RegressionScorer) (float64, bool) {
	var all []labeledScore
	pos, neg := 0, 0
	for _, ex := range sc.TrainingScores() {
		all = append(all, labeledScore{ex.Score, ex.Reported})
		if ex.Reported {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, false
	}
	return youdenThreshold(all, pos, neg), true
}

// SimThreshold returns the Ts in effect (0 before calibration completes).
func (p *Enterprise) SimThreshold() float64 { return p.simThreshold }

// selectCCThreshold picks Tc from the calibration score distribution by
// maximizing TPR-FPR (Youden's J) over the observed scores, breaking ties
// toward the higher threshold (fewer detections for the SOC to vet). It
// reports ok=false when the label set is degenerate (no positives or no
// negatives).
func selectCCThreshold(det *ccdetect.Detector, examples []ccdetect.TrainingExample) (float64, bool) {
	var all []labeledScore
	pos, neg := 0, 0
	for _, ex := range examples {
		v, err := det.Model.Predict(ex.Features.Vector(det.WithAutoHosts))
		if err != nil {
			continue
		}
		all = append(all, labeledScore{v, ex.Reported})
		if ex.Reported {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, false
	}
	return youdenThreshold(all, pos, neg), true
}

// youdenThreshold maximizes TPR-FPR over the observed scores, preferring
// the most inclusive (lowest) maximizer, then widens the margin to the
// midpoint between the chosen cut and the largest score below it — unseen
// domains near the boundary then fall on the side of review rather than
// silence, matching the paper's bias toward coverage with SOC vetting.
func youdenThreshold(all []labeledScore, pos, neg int) float64 {
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	bestJ := -2.0
	bestThr := all[len(all)-1].score
	for i := range all {
		thr := all[i].score
		tp, fp := 0, 0
		for _, s := range all {
			if s.score >= thr {
				if s.reported {
					tp++
				} else {
					fp++
				}
			}
		}
		j := float64(tp)/float64(pos) - float64(fp)/float64(neg)
		if j > bestJ || (j == bestJ && thr < bestThr) {
			bestJ = j
			bestThr = thr
		}
	}
	below := bestThr
	for _, s := range all {
		if s.score < bestThr && (below == bestThr || s.score > below) {
			below = s.score
		}
	}
	return (bestThr + below) / 2
}

type labeledScore struct {
	score    float64
	reported bool
}

// CCExamples returns the collected C&C training examples (for the
// threshold-selection experiments).
func (p *Enterprise) CCExamples() []ccdetect.TrainingExample { return p.ccExamples }

// SimilarityExamples returns the collected similarity training examples.
func (p *Enterprise) SimilarityExamples() []scoring.SimilarityExample { return p.simExamples }

// Config returns the configuration the pipeline runs with (defaults filled).
func (p *Enterprise) Config() EnterpriseConfig { return p.cfg }

// CalibrationState is the portable mid-deployment state of a pipeline:
// everything accumulated since construction that is not in the behavioural
// history. Together with a persisted History it lets a restarted deployment
// resume exactly where it stopped — the models themselves are not stored
// because the fits are deterministic in the example order, so RestoreCalibration
// re-fits bit-identical models from the examples.
type CalibrationState struct {
	CalDays     int                         `json:"calDays"`
	Trained     bool                        `json:"trained"`
	CCExamples  []ccdetect.TrainingExample  `json:"ccExamples,omitempty"`
	SimExamples []scoring.SimilarityExample `json:"simExamples,omitempty"`
}

// ExportCalibration captures the pipeline's calibration progress.
func (p *Enterprise) ExportCalibration() CalibrationState {
	return CalibrationState{
		CalDays:     p.calDays,
		Trained:     p.trained,
		CCExamples:  p.ccExamples,
		SimExamples: p.simExamples,
	}
}

// RestoreCalibration installs a previously exported calibration state on a
// freshly constructed pipeline (same EnterpriseConfig, same history). When
// the exported pipeline had already fit its models they are re-fit here,
// reproducing the original coefficients and thresholds exactly.
func (p *Enterprise) RestoreCalibration(st CalibrationState) error {
	p.calDays = st.CalDays
	p.ccExamples = st.CCExamples
	p.simExamples = st.SimExamples
	if st.Trained {
		if err := p.fitModels(); err != nil {
			return fmt.Errorf("pipeline: restore calibration: %w", err)
		}
	}
	return nil
}
