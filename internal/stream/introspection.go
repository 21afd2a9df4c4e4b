package stream

import (
	"sort"
	"sync"

	"repro/internal/histogram"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/report"
)

// ---- Introspection ----

// Lagging reports whether any shard queue has reached the shed threshold
// (90% of QueueDepth, measured in queued batches) — the signal HTTP
// frontends and the live listeners turn into load shedding before accepting
// another batch.
func (e *Engine) Lagging() bool {
	for _, s := range e.shards {
		if len(s.batches) >= e.shedAt {
			return true
		}
	}
	return false
}

// ShardStats is one shard's live counters. Queue counts queued batches,
// not records.
type ShardStats struct {
	Queue    int    `json:"queue"`
	Ingested uint64 `json:"ingested"`
	// BuilderDomains is the shard's resident incremental-builder state —
	// the open day's distinct domains on this shard, which is what
	// checkpoints serialize and what bounds the shard's memory (there is no
	// raw visit buffer).
	BuilderDomains int `json:"builderDomains"`
	// KnownVisits counts the open day's visits on this shard whose domain
	// the history already held on arrival: folded as markers, never
	// profiled. Summed over the shards and divided by Stats.DayRecords it is
	// the live form of the paper's daily data-reduction ratio (Ingested is
	// not the denominator: it counts since engine start).
	KnownVisits int `json:"knownVisits"`
	// LiveDomains/LivePairs count the shard's rare destinations so far today
	// and their (host, domain) pairs: domains profiled today — absent from
	// the history on arrival — that fewer than the pipeline's
	// UnpopularThreshold hosts have contacted. The shard sees every host of
	// its domains, so the counts are exact and sum over the shards without
	// double counting. AutomatedPairs are the pairs among them the detector's
	// periodicity test marks on the timestamps held right now.
	LivePairs      int `json:"livePairs"`
	LiveDomains    int `json:"liveDomains"`
	AutomatedPairs int `json:"automatedPairs"`
	// HistCacheHits/HistCacheMisses count the shard's history
	// membership-cache outcomes since engine start: hits answered by the
	// shard-local cache of known domains, misses falling through to the
	// locked History lookup.
	HistCacheHits   uint64 `json:"histCacheHits"`
	HistCacheMisses uint64 `json:"histCacheMisses"`
}

// Stats is an engine-wide snapshot.
type Stats struct {
	Day          string       `json:"day,omitempty"`
	DayRecords   uint64       `json:"dayRecords"`
	TotalRecords uint64       `json:"totalRecords"`
	DaysDone     int          `json:"daysDone"`
	Dates        []string     `json:"dates,omitempty"`
	Shards       []ShardStats `json:"shards"`

	// Day-close observability. Closing is the date whose close currently
	// runs in the background ("" when none).
	Closing string `json:"closing,omitempty"`
	// LastRolloverPauseMicros is the exclusive-lock hold time of the last
	// rollover — the ingest stall, which swap-and-continue keeps at the
	// shard buffer swap rather than the pipeline run.
	LastRolloverPauseMicros int64 `json:"lastRolloverPauseMicros"`
	// LastDayCloseMillis is the duration of the last completed background
	// pipeline run.
	LastDayCloseMillis int64 `json:"lastDayCloseMillis"`

	// Checkpoint observability. ResidentBuilderDomains sums the shards'
	// builder domains — the open day's total resident state, which replaced
	// the raw visit buffer as the checkpointed quantity; the Last* fields
	// describe the most recent successful checkpoint.
	ResidentBuilderDomains int   `json:"residentBuilderDomains"`
	LastCheckpointBytes    int64 `json:"lastCheckpointBytes"`
	LastCheckpointMillis   int64 `json:"lastCheckpointMillis"`

	// Preview observability: the duration of the last completed live
	// preview and the number of suspicious domains it surfaced.
	LastPreviewMillis int64 `json:"lastPreviewMillis"`
	PreviewCandidates int64 `json:"previewCandidates"`
}

// LivePair is one beaconing-looking (host, domain) pair of the open day.
type LivePair struct {
	Host       string  `json:"host"`
	Domain     string  `json:"domain"`
	Period     float64 `json:"periodSeconds"`
	Divergence float64 `json:"divergence"`
	Samples    int     `json:"samples"`
}

// Stats snapshots the engine. It visits every shard's worker between two
// batches, so it costs a round trip through each shard queue, but it stops
// no ingest: it holds the engine lock shared, as routing does.
func (e *Engine) Stats() Stats {
	st, _ := e.Snapshot(-1)
	return st
}

// LiveAutomated returns up to limit (<= 0: all) pairs the detector's
// periodicity test currently marks automated, ordered by sample count
// (strongest evidence first) — the early-warning view of the open day before
// rollover makes it official. It is the verdict a close at this instant would
// reach on the same pair: same popularity cut (a domain that has reached
// UnpopularThreshold hosts is not rare and is not listed), same test, same
// configuration, same timestamps.
func (e *Engine) LiveAutomated(limit int) []LivePair {
	_, pairs := e.Snapshot(max(limit, 0))
	return pairs
}

// Snapshot captures engine statistics and, unless maxLive is negative, the
// live automated pairs (maxLive 0: uncapped) in a single visit to the
// shards — one pass instead of two for pollers that want both. It holds the
// engine lock shared, so acceptance and routing go on around it: DayRecords
// counts every batch accepted before the call, TotalRecords every batch
// routed before it, and each shard's live figures are derived from its
// builder on its own worker, as the shard stood once it had applied the
// batches queued when the visit reached it. Nothing is kept resident for
// them.
func (e *Engine) Snapshot(maxLive int) (Stats, []LivePair) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		DayRecords:              e.dayRecords.Load(),
		TotalRecords:            e.totalRecords.Load(),
		DaysDone:                e.daysDone,
		Dates:                   append([]string(nil), e.dates...),
		Shards:                  make([]ShardStats, len(e.shards)),
		LastRolloverPauseMicros: e.lastSwap.Microseconds(),
		LastDayCloseMillis:      e.lastCloseDur.Milliseconds(),
		LastCheckpointBytes:     e.lastCkptBytes.Load(),
		LastCheckpointMillis:    e.lastCkptMicros.Load() / 1000,
		LastPreviewMillis:       e.lastPreviewMicros.Load() / 1000,
		PreviewCandidates:       e.lastPreviewCandidates.Load(),
	}
	if !e.day.IsZero() {
		st.Day = e.day.Format("2006-01-02")
	}
	if e.closing != nil {
		st.Closing = e.closing.date
	}
	if e.closed {
		return st, nil
	}
	var out []LivePair
	var outMu sync.Mutex
	hcfg := e.pipe.Detector().Hist
	unpopular := e.pipe.Config().UnpopularThreshold
	e.quiesce(func(i int, s *shard) {
		ss := ShardStats{
			Queue:           len(s.batches),
			Ingested:        s.ingested.Load(),
			BuilderDomains:  s.part.Domains(),
			KnownVisits:     s.knownVisits,
			HistCacheHits:   s.hist.hits,
			HistCacheMisses: s.hist.miss,
		}
		var local []LivePair
		s.part.EachProfiled(func(d string, hosts []*profile.HostActivity) {
			if len(hosts) >= unpopular {
				return
			}
			ss.LiveDomains++
			ss.LivePairs += len(hosts)
			for _, ha := range hosts {
				v := histogram.AnalyzeTimes(ha.Times, hcfg)
				if !v.Automated {
					continue
				}
				ss.AutomatedPairs++
				if maxLive >= 0 {
					local = append(local, LivePair{
						Host: ha.Host, Domain: d,
						Period: v.Period, Divergence: v.Divergence, Samples: v.Samples,
					})
				}
			}
		})
		st.Shards[i] = ss
		if len(local) > 0 {
			outMu.Lock()
			out = append(out, local...)
			outMu.Unlock()
		}
	})
	for i := range st.Shards {
		st.ResidentBuilderDomains += st.Shards[i].BuilderDomains
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		return out[i].Host < out[j].Host
	})
	if maxLive > 0 && len(out) > maxLive {
		out = out[:maxLive]
	}
	return st, out
}

// publishingLocked returns the in-flight close of date while it has not
// published the day yet, else nil. Caller holds mu (either side).
func (e *Engine) publishingLocked(date string) *dayClose {
	c := e.closing
	if c == nil || c.date != date {
		return nil
	}
	select {
	case <-c.published:
		return nil
	default:
		return c
	}
}

// awaitDateLocked blocks while the given date's close is in flight and has
// not published the day, so readers of a just-rolled-over day observe its
// published report rather than a transient absence. Caller holds mu
// exclusively; the wait releases and reacquires it.
func (e *Engine) awaitDateLocked(date string) {
	for c := e.publishingLocked(date); c != nil; c = e.publishingLocked(date) {
		e.mu.Unlock()
		<-c.published
		e.mu.Lock()
	}
}

// Report returns the SOC-facing daily report for a completed operation
// day. A published report is returned at once, under the shared lock, so
// report polling never stalls the ingest hot path; when the date's close is
// still running in the background and has not published it yet, Report waits
// for the publication — callers that would rather not block (an HTTP frontend
// answering 202) use TryReport.
func (e *Engine) Report(date string) (report.Daily, bool) {
	e.mu.RLock()
	d, ok := e.dailies[date]
	wait := !ok && e.publishingLocked(date) != nil
	e.mu.RUnlock()
	if !wait {
		return d, ok
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.awaitDateLocked(date)
	d, ok = e.dailies[date]
	return d, ok
}

// TryReport is Report without the wait, decided under a single lock
// acquisition: when the date's report is published it is returned
// (ok=true); when the date's close is still in flight and has not published
// it, pending=true and the caller should retry shortly (HTTP frontends answer
// 202 + Retry-After); otherwise the date is unknown, a training day, or still
// open (ok=false, pending=false).
func (e *Engine) TryReport(date string) (d report.Daily, ok, pending bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if d, ok := e.dailies[date]; ok {
		return d, true, false
	}
	return report.Daily{}, false, e.publishingLocked(date) != nil
}

// DayReport returns the full pipeline report for a completed day (training
// days included), answering and waiting like Report. Only the
// Config.RetainDayReports most recent days completed since the engine started
// (or was restored) are available; the compact Report dailies cover all days.
func (e *Engine) DayReport(date string) (pipeline.EnterpriseDayReport, bool) {
	e.mu.RLock()
	r, ok := e.reports[date]
	wait := !ok && e.publishingLocked(date) != nil
	e.mu.RUnlock()
	if !wait {
		return r, ok
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.awaitDateLocked(date)
	r, ok = e.reports[date]
	return r, ok
}

// PendingClose reports the date of the day-close currently running in the
// background, if any.
func (e *Engine) PendingClose() (string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closing == nil {
		return "", false
	}
	return e.closing.date, true
}

// Dates returns the completed days in processing order.
func (e *Engine) Dates() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.dates...)
}

// DaysDone returns the number of completed days (training included).
func (e *Engine) DaysDone() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.daysDone
}
