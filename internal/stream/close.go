package stream

import (
	"net/netip"
	"time"

	"repro/internal/pipeline"
	"repro/internal/report"
)

// dayClose carries one swapped-out day through its background close: the
// open day as the swap took it, which the close classifies into the day
// snapshot.
type dayClose struct {
	openDay
	date      string
	training  bool
	published chan struct{} // closed when the day's reports are readable
	done      chan struct{} // closed when the close is final
}

// BeginDay opens a day, first swapping any previously open one out to a
// background day-close (swap-and-continue: ingestion into the new day
// proceeds while the analytics run). The lease map resolves source
// addresses without a Host field for the whole day; it may be nil when
// records carry hostnames.
func (e *Engine) BeginDay(day time.Time, leases map[netip.Addr]string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	day = time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC)
	if !e.day.IsZero() && !e.day.Equal(day) {
		e.beginCloseLocked(e.day)
		if e.closed { // Close slipped in while awaiting the previous close
			return ErrClosed
		}
	}
	e.day = day
	e.leases = leases
	return nil
}

// Flush completes the open day (if any records were ingested) and leaves no
// day open. Unlike BeginDay it waits for the day-close to finish, so the
// day's report is readable when Flush returns.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if c := e.beginCloseLocked(e.day); c != nil {
		e.mu.Unlock()
		<-c.done
		e.mu.Lock()
	}
	return nil
}

// Close flushes the open day, waits for the close to complete, and stops
// the shard workers. The engine rejects ingestion afterwards; reports
// remain readable. The flush loops: a concurrent BeginDay can slip a new
// day in while the lock is released for a close wait, and records the
// engine accepted must never be silently dropped — Close keeps closing
// until no day is open and no close is in flight.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		e.awaitCloseLocked()
		if e.closed { // a concurrent Close finished while the lock was released
			return
		}
		if e.day.IsZero() {
			break
		}
		e.beginCloseLocked(e.day)
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.batches)
	}
}

// awaitCloseLocked blocks until no day-close is in flight. Caller holds mu
// exclusively; the wait releases and reacquires it, so callers must
// re-validate any state they read before calling.
func (e *Engine) awaitCloseLocked() {
	for e.closing != nil {
		c := e.closing
		e.mu.Unlock()
		<-c.done
		e.mu.Lock()
	}
}

// beginCloseLocked swaps the open day out of the shards and starts its
// close on a background goroutine, after waiting out any close already in
// flight (day-closes are strictly serialized, so days complete in order
// and the pipeline is never entered concurrently). The exclusive lock is
// held only for the shard buffer swap — O(queued batches + shards) — not
// for the pipeline run, so next-day ingestion resumes immediately.
//
// expect is the day the caller intends to close (its read of e.day before
// the call): the wait releases the lock, so a concurrent rollover may
// already have closed that day — or opened a different one — by the time
// it reacquires. In that case beginCloseLocked returns nil without
// touching the now-open day; closing whatever happens to be open would
// sever a day another producer is mid-stream into.
//
// Returns the started close, or nil when there was nothing (left) to
// close — no open day, no records (an empty day produces no report, as in
// batch mode, where it has no file), or the expected day already closed by
// someone else (a Close that finished meanwhile included). Caller holds mu
// exclusively; the wait releases and reacquires it.
func (e *Engine) beginCloseLocked(expect time.Time) *dayClose {
	e.awaitCloseLocked()
	if e.day.IsZero() || !e.day.Equal(expect) {
		return nil
	}
	if e.dayRecords.Load() == 0 {
		e.day = time.Time{}
		e.leases = nil
		return nil
	}

	start := time.Now()
	c := &dayClose{
		date: e.day.Format("2006-01-02"),
		// All earlier days are published (no close in flight), so the
		// train/process split is decided here, consistently with the
		// sequential engine.
		training:  e.daysDone < e.cfg.TrainingDays,
		published: make(chan struct{}),
		done:      make(chan struct{}),
	}
	// The swap takes the shards' partial snapshots and marker sets and resets
	// their day state; this is the whole ingest stall of a rollover.
	c.openDay = e.takeOpenDayLocked(false)
	e.day = time.Time{}
	e.leases = nil
	e.lastSwap = time.Since(start)
	e.closing = c
	go e.runDayClose(c)
	return c
}

// runDayClose is the background half of a rollover: classify the swapped
// per-shard partial snapshots (O(domains), no union — the shards are
// domain-disjoint — not an O(visits log visits) re-reduce of the day), run
// the batch pipeline path on the prebuilt snapshot, publish the report, and
// only then commit the day to the history: the SOC's report does not wait for
// a write that only tomorrow's classification reads, and everything that
// could read the history before the commit lands — a checkpoint, a preview,
// the next close — waits the close out. A close cannot fail: a pipeline that
// cannot fit its models yet reports the day as calibrating. Runs without the
// engine lock; the shards are already ingesting the next day.
func (e *Engine) runDayClose(c *dayClose) {
	if e.closeHook != nil {
		e.closeHook(c.date)
	}
	// The write side waits out any checkpoint encode or preview that cloned
	// the open day before this close began; none can start until it ends.
	e.commitGate.Lock()
	start := time.Now()
	// The day is classified against the history with every earlier day
	// committed — closes are strictly serialized, so the in-order commit the
	// snapshot's "new domain" judgement depends on holds.
	pcfg := e.pipe.Config()
	snap, stats := c.classify(e.hist, pcfg.UnpopularThreshold, pcfg.Workers)
	c.parts, c.markers = nil, nil // the snapshot owns their structure now
	var rep pipeline.EnterpriseDayReport
	var daily *report.Daily
	if c.training {
		rep = e.pipe.TrainSnapshot(c.day, snap, stats)
	} else {
		rep = e.pipe.ProcessSnapshot(c.day, snap, stats)
		d := report.Build(rep)
		daily = &d
	}

	e.mu.Lock()
	e.daysDone++
	e.reports[c.date] = rep
	if daily != nil {
		e.dailies[c.date] = *daily
	}
	e.dates = append(e.dates, c.date)
	e.evictOldReportsLocked()
	close(c.published)
	e.mu.Unlock()

	snap.Commit(e.hist)
	dur := time.Since(start)
	e.commitGate.Unlock()

	// OnReport runs outside the lock but before the close is marked done,
	// so callbacks for successive days never overlap.
	if e.cfg.OnReport != nil {
		e.cfg.OnReport(rep, daily)
	}
	e.mu.Lock()
	e.lastCloseDur = dur
	e.closing = nil
	e.mu.Unlock()
	close(c.done)
}

// evictOldReportsLocked drops the oldest full day reports beyond the
// retention bound. The compact dailies stay forever.
func (e *Engine) evictOldReportsLocked() {
	if e.cfg.RetainDayReports < 0 {
		return
	}
	for _, date := range e.dates {
		if len(e.reports) <= e.cfg.RetainDayReports {
			return
		}
		delete(e.reports, date)
	}
}
