package stream

import (
	"time"

	"repro/internal/report"
)

// PreviewReport is a provisional mid-day detection report: what a rollover
// at the instant of the Preview call would have published, computed from a
// clone of the open day's state without closing anything. It is advisory by
// construction — more of the day's traffic can still flip any verdict, and
// nothing here is committed to the history.
type PreviewReport struct {
	// Date is the open operation day previewed.
	Date string `json:"date"`
	// GeneratedAt/DurationMillis describe the preview run itself.
	GeneratedAt    time.Time `json:"generatedAt"`
	DurationMillis int64     `json:"durationMillis"`
	// Records is how much of the day had been ingested when the state was
	// frozen.
	Records uint64 `json:"records"`
	// NewDomains counts domains never seen in the history before today.
	NewDomains int `json:"newDomains"`
	// Calibrating is true while the pipeline's models are not yet fit: the
	// report then lists automated domains (in AutomatedDomains) but no
	// scored C&C candidates or propagation expansions.
	Calibrating bool `json:"calibrating"`
	// Report is the provisional SOC daily, in the exact shape of a
	// day-close report (rare-destination counts, scored C&C candidates,
	// similarity expansions, clusters).
	Report report.Daily `json:"report"`
}

// Preview runs the pure day-close pipeline over a clone of the open day and
// returns the provisional report. The engine is frozen only while the
// per-shard builders are cloned — the same brief rollover-style pause a
// Checkpoint takes, O(resident state), not O(pipeline) — after which
// ingestion proceeds and the classify/detect/score/propagate stages run on the
// clone. Live state is never mutated: day-close reports are byte-identical
// whether or not previews ran (TestPreviewDoesNotPerturbDayClose), and the
// preview output itself is deterministic for a fixed frozen state and any
// worker count.
//
// An in-flight day-close is waited out first, exactly as Checkpoint does, so
// the preview judges "new today" against a history holding every earlier
// day. workers bounds the stage fan-out (0: the pipeline's own Workers
// setting).
//
// Returns ErrClosed on a closed engine and ErrNoDay when no day is open.
func (e *Engine) Preview(workers int) (PreviewReport, error) {
	var start time.Time
	od, err := e.freezeOpenDay(func() { start = time.Now() })
	if err != nil {
		return PreviewReport{}, err
	}
	defer e.commitGate.RUnlock()
	if od.day.IsZero() {
		return PreviewReport{}, ErrNoDay
	}

	// Classify and count exactly as runDayClose does.
	pcfg := e.pipe.Config()
	if workers == 0 {
		workers = pcfg.Workers
	}
	snap, stats := od.classify(e.hist, pcfg.UnpopularThreshold, workers)
	rep := e.pipe.PreviewSnapshot(od.day, snap, stats, workers)
	daily := report.Build(rep)

	pr := PreviewReport{
		Date:           daily.Date,
		GeneratedAt:    start.UTC(),
		DurationMillis: time.Since(start).Milliseconds(),
		Records:        od.records,
		NewDomains:     rep.NewCount,
		Calibrating:    rep.Calibrating,
		Report:         daily,
	}
	e.lastPreviewMicros.Store(time.Since(start).Microseconds())
	e.lastPreviewCandidates.Store(int64(len(daily.Domains)))
	return pr, nil
}
