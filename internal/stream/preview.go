package stream

import (
	"time"

	"repro/internal/profile"
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
// ingestion proceeds and the merge/detect/score/propagate stages run on the
// clone. Live state is never mutated: day-close reports are byte-identical
// whether or not previews ran (TestPreviewDoesNotPerturbDayClose), and the
// preview output itself is deterministic for a fixed frozen state and any
// worker count.
//
// The preview classifies against the live history. While yesterday's close
// is still analyzing in the background, that history does not yet contain
// yesterday — the preview then judges "new today" against the state before
// yesterday's commit, which is acceptable for an advisory report and
// resolves itself at the next preview. workers bounds the stage fan-out
// (0: the pipeline's own Workers setting).
//
// Returns ErrClosed on a closed engine and ErrNoDay when no day is open.
func (e *Engine) Preview(workers int) (PreviewReport, error) {
	e.mu.Lock()
	for {
		if e.closed {
			e.mu.Unlock()
			return PreviewReport{}, ErrClosed
		}
		c := e.closing
		if c == nil || c.phase != closeCommitting {
			break
		}
		// The close is mutating pipeline state (or queued to, behind an
		// in-flight checkpoint's gate hold): taking the commit gate's read
		// side now could deadlock against the waiting writer, and the models
		// are mid-mutation anyway. The commit tail is short; wait it out,
		// exactly as Checkpoint does.
		wait := c.done
		e.mu.Unlock()
		<-wait
		e.mu.Lock()
	}
	if e.day.IsZero() {
		e.mu.Unlock()
		return PreviewReport{}, ErrNoDay
	}

	start := time.Now()
	day := e.day
	records := e.dayRecords.Load()
	droppedIP := e.dayDroppedIP.Load()

	// Freeze: clone every shard's partial snapshot and marker set. This is
	// the whole ingest stall of a preview.
	parts, markers, unresolved := e.cloneOpenDayLocked()

	// Hold the commit gate across the analytics: an in-flight close blocks
	// at its pre-commit hook instead of mutating history, calibration or
	// models mid-preview. Taking the read side here cannot block — a
	// committing-phase close was waited out above, and no close can reach
	// its hook while we hold mu. The pure stages of that close run
	// concurrently with ours; both only read.
	e.commitGate.RLock()
	e.mu.Unlock()
	defer e.commitGate.RUnlock()

	// Classify and count exactly as runDayClose does.
	pcfg := e.pipe.Config()
	if workers == 0 {
		workers = pcfg.Workers
	}
	snap := profile.ClassifyDisjoint(day, parts, e.hist, pcfg.UnpopularThreshold, workers)
	stats := dayStats(snap, parts, markers, records, droppedIP, unresolved)
	rep := e.pipe.PreviewSnapshot(day, snap, stats, workers)
	daily := report.Build(rep)

	pr := PreviewReport{
		Date:           daily.Date,
		GeneratedAt:    start.UTC(),
		DurationMillis: time.Since(start).Milliseconds(),
		Records:        records,
		NewDomains:     rep.NewCount,
		Calibrating:    rep.Calibrating,
		Report:         daily,
	}
	e.lastPreviewMicros.Store(time.Since(start).Microseconds())
	e.lastPreviewCandidates.Store(int64(len(daily.Domains)))
	return pr, nil
}
