// Package stream is the live-feed counterpart of internal/batch: it ingests
// proxy records one at a time — from an HTTP feed, a replayed dataset, or an
// in-process generator — and produces the same daily reports the batch
// pipelines do.
//
// Architecture. Records are normalized on the ingest path (the per-record
// half of normalize.ReduceProxy: IP-literal filtering, lease resolution,
// UTC conversion, second-level folding) and hashed by folded domain onto N
// worker shards, so every host's visits to a domain — the unit the paper's
// rare-destination question is asked of — meet on one shard. Ingestion is
// batched end to end: IngestBatch takes the engine lock once per batch,
// reserves a contiguous sequence range with a single atomic add, reduces the
// records into pooled per-shard buffers, and hands each shard its share in a
// single channel operation. Each shard owns its slice of the day state — a partial day
// snapshot (profile.IncrementalBuilder) and the set of domains it has seen
// only through lease-less records — so the hot path takes no locks: a
// shard's state is touched only by its own worker goroutine, and cross-shard
// operations (rollover, checkpoint, stats) go through a control channel that
// the worker services between batches.
//
// Snapshot maintenance is incremental: each shard folds every visit into a
// profile.IncrementalBuilder — a partial day snapshot whose order-sensitive
// state is keyed by arrival sequence number, so the interleaving of
// concurrent batches cannot perturb it. The paper's rare-destination filter
// is applied as the visit arrives: only a domain absent from the history is
// profiled; a visit to a domain the history already holds leaves a marker,
// a count and its (host, UA) pair (see applyRun). The builders are the only
// resident day state: checkpoints serialize them directly (format v2,
// domain-keyed frames independent of the shard count), so no arrival-order
// raw visit buffer exists anywhere — the engine's footprint is proportional
// to the day's distinct domains plus its traffic toward new domains, not to
// its traffic volume.
//
// When BeginDay opens the next day (or on an explicit Flush), the rollover
// is swap-and-continue: under the exclusive lock the engine only
// swaps the open day's per-shard partials out — O(queued batches +
// shards), not O(pipeline run) — then a background day-close goroutine
// classifies the partials into the day snapshot (profile.ClassifyDisjoint:
// the shards are domain-disjoint, so nothing is merged; O(domains) instead
// of an O(visits log visits) re-reduce) and hands it to the exact
// internal/pipeline Train/Process path the batch runner uses, concurrent
// with next-day ingestion. Streaming reports are therefore byte-identical
// to batch reports over the same records (the TestStreamingMatchesBatch
// and TestIncrementalSnapshotMatchesBatch golden tests hold this
// invariant), and ingestion never stalls for the duration of the
// analytics. Day-closes are strictly serialized: Flush, Close, Checkpoint,
// Preview and the next rollover all wait on an in-flight close, so days
// complete in order, the pipeline is never entered concurrently, and a
// checkpoint or preview always sees a settled close. A close has one
// outcome: the pipeline cannot fail a day (a C&C fit that cannot be made yet
// reports the day as calibrating), so every close publishes its day. It
// publishes the day's reports before it commits the day to the history —
// only the next day's classification reads that commit — so Report and
// DayReport of a published day never wait, and of a closing day wait only
// for publication.
//
// In between rollovers LiveAutomated gives an early-warning signal: it runs
// the detector's periodicity test over the timestamps the builders already
// hold and lists the beaconing-looking (host, domain) pairs of the open day
// before the day's verdict is final.
//
// Reports and checkpoints are byte-deterministic for a given logical state;
// reprolint's maporder analyzer enforces the marker below, and its
// locksafety analyzer holds the bounded-stall rule (nothing blocking under
// the engine locks).
//
//lint:deterministic
package stream

import (
	"errors"
	"hash/maphash"
	"maps"
	"math"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/report"
)

// Errors returned by the ingest path.
var (
	// ErrClosed reports ingestion into a closed engine.
	ErrClosed = errors.New("stream: engine closed")
	// ErrNoDay reports ingestion with no open day.
	ErrNoDay = errors.New("stream: no open day (call BeginDay)")
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of ingest workers (default GOMAXPROCS).
	Shards int
	// QueueDepth is the per-shard channel buffer, counted in batches, not
	// records — an HTTP request or a replay chunk occupies one slot however
	// many records it carries (default 4096).
	QueueDepth int
	// TrainingDays routes the first N completed days through the
	// pipeline's Train path (profiling) before Process takes over.
	TrainingDays int
	// RetainDayReports bounds how many full pipeline day reports (with
	// their day snapshots) the engine keeps for DayReport — the compact
	// SOC dailies are always kept. A long-running daemon would otherwise
	// grow by one day snapshot per day forever. Default 7; negative keeps
	// all (tests, short evaluations).
	RetainDayReports int
	// OnReport, when set, observes every completed day. daily is nil for
	// training days. The callback runs on the background day-close
	// goroutine after the day is published and committed but while the close
	// still counts as in flight, so successive days' callbacks never overlap.
	// It may read the day back (Report, DayReport), but must not
	// synchronously call engine operations that wait on the in-flight close
	// (Checkpoint, Preview, Flush, Close would self-deadlock) — hand such work
	// to another goroutine, as cmd/reprod does for its rollover checkpoints.
	OnReport func(rep pipeline.EnterpriseDayReport, daily *report.Daily)
	// CloseHook, when set, runs on the day-close goroutine before the day is
	// classified, with the closing date. It is a test seam for observing or
	// stalling the background close (the ingest-during-close and HTTP 202
	// tests); leave nil in production.
	CloseHook func(date string)
}

func (c *Config) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.RetainDayReports == 0 {
		c.RetainDayReports = 7
	}
}

// shedFraction is the queue fullness, in queued batches against QueueDepth,
// at which Lagging reports true — the load-shedding trigger HTTP frontends
// and the live listeners consult before accepting more work.
const shedFraction = 0.9

// item is one unit of sharded work: a reduced visit, or (for records whose
// source address had no lease) a bare domain marker that only feeds the
// day's distinct-domain count.
type item struct {
	seq      uint64
	resolved bool
	domain   string // marker items only
	visit    logs.Visit
}

// histCache is a shard-local memo of the History.SeenDomain verdicts that
// come back true. The domain history only ever grows, so an entry is valid
// forever and a hit pays no synchronization at all. The cache deliberately
// survives resetDay: the enterprise's working set of known domains recurs day
// after day, which is exactly what it keeps hot. A false verdict is not
// memoised: the run that received it profiles the domain, and its builder's
// Profiled() answers every later run of the day without asking.
type histCache struct {
	pos  map[string]struct{}
	hits uint64
	miss uint64
}

// histCacheMax bounds the cache; overflow clears it (simple and rare — it
// takes that many *distinct* known domains on one shard).
const histCacheMax = 1 << 17

// seenDomain is History.SeenDomain through the shard's cache (worker
// goroutine only). An entry outlives the day and the batch, so its key is a
// copy of d, which may point into a decoder's text block.
func (s *shard) seenDomain(d string) bool {
	hc := &s.hist
	if _, ok := hc.pos[d]; ok {
		hc.hits++
		return true
	}
	hc.miss++
	if !s.eng.hist.SeenDomain(d) {
		return false
	}
	if hc.pos == nil {
		hc.pos = make(map[string]struct{})
	} else if len(hc.pos) >= histCacheMax {
		clear(hc.pos)
	}
	hc.pos[strings.Clone(d)] = struct{}{}
	return true
}

type ctrlReq struct {
	fn   func(*shard)
	done chan struct{}
}

// shard owns one slice of the open day. All fields below batches/ctrl are
// touched only by the shard's worker goroutine.
type shard struct {
	eng     *Engine
	batches chan *[]item
	ctrl    chan ctrlReq

	// part is the shard's partial day snapshot, maintained visit by visit
	// on the apply path so day-close classifies ready-made aggregates
	// (profile.ClassifyDisjoint) instead of re-reducing the whole day. It
	// holds every visit of its domains and no other shard holds any: routing
	// is by domain. The builder is seq-keyed, so the out-of-order
	// interleaving of concurrent batches draining into the shard cannot
	// perturb it. It is the only copy of the open day: the live view
	// (Snapshot) reads the same timestamps the close will classify.
	part *profile.IncrementalBuilder
	// markers holds the domains of runs that carried only lease-less
	// records, when the builder does not hold the domain already. They count
	// toward the day's distinct-domain statistic but hold no visit state; a
	// marker the builder gains later is dropped where the statistic is
	// computed (markerOnly). Keys are copies, like the builder's.
	markers     map[string]struct{}
	unresolved  int // lease-less records today
	knownVisits int // resolved visits today folded as known-domain markers (applyRun)

	hist histCache

	ingested atomic.Uint64
}

func newShard(e *Engine, depth int) *shard {
	return &shard{
		eng:     e,
		batches: make(chan *[]item, depth),
		ctrl:    make(chan ctrlReq),
		part:    profile.NewIncrementalBuilder(),
		markers: make(map[string]struct{}),
	}
}

func (s *shard) run() {
	for {
		select {
		case b, ok := <-s.batches:
			if !ok {
				return
			}
			s.applyBatch(b)
		case c := <-s.ctrl:
			// Drain queued batches first: the engine only issues control
			// requests while holding the write lock, so no new batches can
			// race in and the drain observes the complete prefix.
			for {
				select {
				case b := <-s.batches:
					s.applyBatch(b)
					continue
				default:
				}
				break
			}
			c.fn(s)
			close(c.done)
		}
	}
}

// itemDomain returns the folded domain an item files under, for resolved
// visits and unresolved markers alike.
func itemDomain(it *item) string {
	if it.resolved {
		return it.visit.Domain
	}
	return it.domain
}

// applyBatch folds one routed slice as the same-domain runs it already
// contains and recycles its buffer. Any cut of the batch into runs is legal,
// because the builder's state is a pure function of the (seq, visit) set (see
// profile.IncrementalBuilder) and nothing else consumes the apply order.
func (s *shard) applyBatch(b *[]item) {
	items := *b
	for i := 0; i < len(items); {
		d := itemDomain(&items[i])
		j := i + 1
		for j < len(items) && itemDomain(&items[j]) == d {
			j++
		}
		s.applyRun(d, items[i:j])
		i = j
	}
	s.ingested.Add(uint64(len(items)))
	s.eng.putBuf(b)
}

// applyRun folds one run of same-domain items: one builder cursor — the
// run's only domain-keyed map probe — and at most one history check.
//
// The history check is the paper's rare-destination filter (§III-A) applied
// where the visit arrives: a run whose domain the history already holds is
// folded as markers (profile.RunCursor.AddKnown — counted, its (host, UA)
// pairs kept, nothing profiled), because day-close classification would
// discard that domain's profile anyway. The verdict cannot go stale: the
// history only grows and closes are serialized, so "known now" implies
// "known when the day is classified".
//
// A domain this shard has already profiled today skips the lookup: it was
// absent from the history then, and it stays profiled for the day even if a
// racing day-close commit has made it historical since — classification
// discards that state exactly as it would the known marker. The shard sees
// all of the domain's visits, so its aggregate is one kind or the other,
// never both. Otherwise the run's first resolved visit decides once for the
// whole run, through the shard's cache of known domains (seenDomain). The
// underlying history read is safe — it is internally locked, and the only
// writer is the background day-close committing yesterday while this shard
// ingests today.
func (s *shard) applyRun(domain string, items []item) {
	// The cursor is created on the run's first resolved visit: a marker-only
	// run must not create an (empty) builder domain, which would perturb the
	// merged day's domain statistics.
	var cur profile.RunCursor
	haveCur, known := false, false
	for x := range items {
		it := &items[x]
		if !it.resolved {
			s.unresolved++
			continue
		}
		if !haveCur {
			cur = s.part.Run(domain)
			haveCur = true
			known = !cur.Profiled() && s.seenDomain(domain)
		}
		if known {
			cur.AddKnown(&it.visit)
			s.knownVisits++
		} else {
			cur.Add(it.seq, &it.visit)
		}
	}
	if !haveCur {
		s.addMarker(domain)
	}
}

// addMarker records a marker-only run's domain. The name is copied once per
// shard-day, and only when the builder holds no copy of its own: a marker for
// a domain the builder holds adds nothing to the day's statistic.
func (s *shard) addMarker(domain string) {
	if _, ok := s.markers[domain]; ok || s.part.HasDomain(domain) {
		return
	}
	s.markers[strings.Clone(domain)] = struct{}{}
}

// do runs fn on the shard's worker goroutine and waits for it.
func (s *shard) do(fn func(*shard)) {
	done := make(chan struct{})
	s.ctrl <- ctrlReq{fn: fn, done: done}
	<-done
}

// resetDay clears the shard's day state (worker goroutine only). The
// history cache deliberately survives: its positive side is valid across
// days and is what makes the next day's first touches of the enterprise's
// recurring domains lock-free.
func (s *shard) resetDay() {
	s.part = profile.NewIncrementalBuilder()
	s.markers = make(map[string]struct{})
	s.unresolved = 0
	s.knownVisits = 0
}

// Engine is the concurrent streaming ingestion engine.
type Engine struct {
	cfg    Config
	pipe   *pipeline.Enterprise
	hist   *profile.History
	shards []*shard
	seed   maphash.Seed
	shedAt int // queued batches at which Lagging fires (shedFraction of QueueDepth)

	seq          atomic.Uint64
	dayRecords   atomic.Uint64 // raw records ingested into the open day
	dayDroppedIP atomic.Uint64 // IP-literal drops in the open day
	totalRecords atomic.Uint64

	bufPool     sync.Pool // *[]item: shard send buffers, recycled by the workers
	scratchPool sync.Pool // *routeScratch: per-batch routing state

	// mu orders ingestion against rollover: ingest holds it shared (the
	// hot path's only synchronization besides the channel send), the
	// rollover swap and checkpointing hold it exclusively, which also
	// guarantees every shard queue drains to a quiescent state before the
	// day is frozen. The pipeline itself runs on a background day-close
	// goroutine without the lock, so the ingest stall at rollover is the
	// buffer swap, not the analytics.
	mu       sync.RWMutex
	day      time.Time // open day (UTC midnight); zero when none
	leases   map[netip.Addr]string
	daysDone int
	reports  map[string]pipeline.EnterpriseDayReport
	dailies  map[string]report.Daily
	dates    []string // completed days in processing order
	closed   bool

	// closing is the in-flight background day-close; nil when none.
	closing *dayClose
	// lastSwap is the exclusive-lock hold time of the last rollover (the
	// ingest stall); lastCloseDur the last background pipeline duration.
	lastSwap     time.Duration
	lastCloseDur time.Duration
	// commitGate orders checkpoint encodes and previews against day-closes.
	// Checkpoint and Preview take the read side under mu, with no close in
	// flight, and hold it for their encode or analytics (which run without
	// mu, so ingestion proceeds); runDayClose holds the write side from
	// classification through the pipeline's commit. A close that starts
	// after their clone therefore cannot mutate history, calibration or
	// models under them.
	commitGate sync.RWMutex
	// lastCkptBytes/lastCkptMicros record the most recent successful
	// checkpoint's encoded size and duration (written without mu).
	lastCkptBytes  atomic.Int64
	lastCkptMicros atomic.Int64
	// lastPreviewMicros/lastPreviewCandidates record the most recent
	// completed Preview's duration and suspicious-domain count (written
	// without mu).
	lastPreviewMicros     atomic.Int64
	lastPreviewCandidates atomic.Int64
	// closeHook is Config.CloseHook (settable directly by in-package tests
	// before the engine starts rolling days).
	closeHook func(date string)
}

// dayClose carries one swapped-out day through its background close. The
// swap takes only the shards' partial snapshots and marker sets; the close
// classifies them into the day snapshot.
type dayClose struct {
	day        time.Time
	date       string
	parts      []*profile.IncrementalBuilder // per-shard partial snapshots
	markers    []map[string]struct{}         // per-shard lease-less-only domains
	unresolved int                           // lease-less records in the day
	records    uint64
	droppedIP  uint64
	training   bool
	published  chan struct{} // closed when the day's reports are readable
	done       chan struct{} // closed when the close is final
}

// New starts an engine around a pipeline. The pipeline must not be used
// concurrently by anyone else; the engine drives it at day rollover.
func New(cfg Config, pipe *pipeline.Enterprise) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:       cfg,
		pipe:      pipe,
		hist:      pipe.History(),
		seed:      maphash.MakeSeed(),
		reports:   make(map[string]pipeline.EnterpriseDayReport),
		dailies:   make(map[string]report.Daily),
		closeHook: cfg.CloseHook,
	}
	// Precompute the shed trigger in queued batches: Lagging fires at
	// ceil(shedFraction · QueueDepth), which is at least 1 for any depth.
	e.shedAt = int(math.Ceil(shedFraction * float64(cfg.QueueDepth)))
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, cfg.QueueDepth)
		go e.shards[i].run()
	}
	return e
}

// Pipeline exposes the wrapped pipeline. Callers must not drive it while
// the engine is open.
func (e *Engine) Pipeline() *pipeline.Enterprise { return e.pipe }

// Config returns the engine's resolved configuration — the caller's Config
// with every default applied (shard count, queue depth, ...). Introspection
// only; mutating the copy has no effect.
func (e *Engine) Config() Config { return e.cfg }

// shardIndex hashes a folded domain onto a shard — for visits and lease-less
// markers alike, at ingest and at Restore — so the shards' builders are
// domain-disjoint by construction.
func (e *Engine) shardIndex(domain string) int {
	return int(maphash.String(e.seed, domain) % uint64(len(e.shards)))
}

// routeScratch is the reusable routing state of one batch: a pending send
// buffer per shard plus the list of shards touched, so routing costs pool
// lookups instead of per-record allocations — even for a batch of one.
type routeScratch struct {
	bufs    []*[]item
	touched []int
}

// getBuf takes a shard send buffer with room for a shard's share of the
// n-record batch in hand. A pooled buffer short of that share — left by a
// short batch, such as a day file's last chunk — is dropped, as
// logs.GetProxyBuf does, rather than regrown by append-doubling; a fresh one
// is sized once for the share plus slack for an uneven hash.
func (e *Engine) getBuf(n int) *[]item {
	share := n / len(e.shards)
	if b, ok := e.bufPool.Get().(*[]item); ok && cap(*b) >= share {
		return b
	}
	b := make([]item, 0, share+share/4+16)
	return &b
}

func (e *Engine) putBuf(b *[]item) {
	*b = (*b)[:0]
	e.bufPool.Put(b)
}

func (e *Engine) getScratch() *routeScratch {
	if sc, ok := e.scratchPool.Get().(*routeScratch); ok {
		return sc
	}
	return &routeScratch{bufs: make([]*[]item, len(e.shards))}
}

// putScratch recycles the scratch; every buffer it held has been handed to
// a shard worker by then.
func (e *Engine) putScratch(sc *routeScratch) {
	sc.touched = sc.touched[:0]
	e.scratchPool.Put(sc)
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

// IngestBatch feeds a slice of raw proxy records through the batched hot
// path: the engine lock is taken once, one atomic add reserves a contiguous
// sequence range, the records reduce into pooled per-shard buffers, and
// each shard receives its share in a single channel operation. The whole
// batch lands in the open day, whatever its timestamps, in slice order and
// atomically with respect to concurrent batches; an error (ErrClosed,
// ErrNoDay) means none of it was ingested. An empty batch returns nil.
// Blocks while a destination shard's queue is full. The slice is not
// retained. Safe for concurrent use.
func (e *Engine) IngestBatch(recs []logs.ProxyRecord) error {
	if len(recs) == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.day.IsZero() {
		return ErrNoDay
	}
	e.routeBatchLocked(recs)
	return nil
}

// routeBatchLocked routes recs into the open day. Each record reduces via
// the shared per-record reducer into a per-shard buffer; one seq-range
// reservation and at most one channel send per shard replace the per-record
// atomics and sends the engine used before batching. A send blocks while its
// shard's queue is full — safe, because the workers always drain (control
// requests need the exclusive lock, which cannot be taken while we hold it
// shared). Caller holds mu (shared).
func (e *Engine) routeBatchLocked(recs []logs.ProxyRecord) {
	n := len(recs)

	sc := e.getScratch()
	defer e.putScratch(sc)

	base := e.seq.Add(uint64(n)) - uint64(n)
	single := len(e.shards) == 1 // one shard: no routing hash needed
	var droppedIP uint64
	var red normalize.ProxyReducer
	for i := range recs {
		r := &recs[i]
		host, folded, outcome := red.Key(r, e.leases)
		if outcome == normalize.ProxyDroppedIPLiteral {
			droppedIP++
			continue
		}
		si := 0
		if !single {
			si = e.shardIndex(folded)
		}
		buf := sc.bufs[si]
		if buf == nil {
			buf = e.getBuf(n)
			sc.bufs[si] = buf
			sc.touched = append(sc.touched, si)
		}
		// Append a zero item and reduce into it in place — the record is
		// read through its pointer and the visit written once, straight
		// into the shard's buffer.
		*buf = append(*buf, item{})
		it := &(*buf)[len(*buf)-1]
		it.seq = base + uint64(i) + 1
		if outcome == normalize.ProxyDroppedUnresolved {
			// Unresolvable source: the record still counts toward the day's
			// distinct-domain statistic, exactly as in batch.
			it.domain = folded
		} else {
			it.resolved = true
			normalize.FillVisit(&it.visit, r, host, folded)
		}
	}

	for _, si := range sc.touched {
		e.shards[si].batches <- sc.bufs[si]
		sc.bufs[si] = nil // owned by the worker now
	}

	e.dayRecords.Add(uint64(n))
	e.totalRecords.Add(uint64(n))
	if droppedIP > 0 {
		e.dayDroppedIP.Add(droppedIP)
	}
}

// quiesce runs fn against every shard on its worker goroutine, after the
// worker has drained its queue. Caller must hold mu exclusively so no new
// records can be routed while shards are frozen.
func (e *Engine) quiesce(fn func(i int, s *shard)) {
	var wg sync.WaitGroup
	for i, s := range e.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			s.do(func(sh *shard) { fn(i, sh) })
		}(i, s)
	}
	wg.Wait()
}

// cloneOpenDayLocked copies the open day out of the shards in one quiesce —
// each shard's builder and marker set, and the summed lease-less count — so
// the caller can merge and encode after the lock is released while the ingest
// path keeps mutating the originals. This is the whole ingest stall of a
// Preview or a Checkpoint. Caller holds mu exclusively.
func (e *Engine) cloneOpenDayLocked() (parts []*profile.IncrementalBuilder, markers []map[string]struct{}, unresolved int) {
	parts = make([]*profile.IncrementalBuilder, len(e.shards))
	markers = make([]map[string]struct{}, len(e.shards))
	unres := make([]int, len(e.shards))
	e.quiesce(func(i int, s *shard) {
		parts[i] = s.part.Clone()
		markers[i] = maps.Clone(s.markers)
		unres[i] = s.unresolved
	})
	for _, n := range unres {
		unresolved += n
	}
	return parts, markers, unresolved
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
	records := e.dayRecords.Load()
	if records == 0 {
		e.day = time.Time{}
		e.leases = nil
		return nil
	}

	start := time.Now()
	c := &dayClose{
		day:       e.day,
		date:      e.day.Format("2006-01-02"),
		records:   records,
		droppedIP: e.dayDroppedIP.Load(),
		// All earlier days are published (no close in flight), so the
		// train/process split is decided here, consistently with the
		// sequential engine.
		training:  e.daysDone < e.cfg.TrainingDays,
		published: make(chan struct{}),
		done:      make(chan struct{}),
	}
	// One quiesce swaps every shard's partial snapshot and marker set out
	// and resets its day state; this is the whole ingest stall of a
	// rollover. The arrival-order visit buffers are NOT carried along —
	// the close runs from the partials, so the closing day's buffers free
	// as soon as the swap returns instead of living until the pipeline
	// accepts the day.
	c.parts = make([]*profile.IncrementalBuilder, len(e.shards))
	c.markers = make([]map[string]struct{}, len(e.shards))
	unresolved := make([]int, len(e.shards))
	e.quiesce(func(i int, s *shard) {
		c.parts[i] = s.part
		c.markers[i] = s.markers
		unresolved[i] = s.unresolved
		s.resetDay()
	})
	for _, n := range unresolved {
		c.unresolved += n
	}
	e.dayRecords.Store(0)
	e.dayDroppedIP.Store(0)
	e.day = time.Time{}
	e.leases = nil
	e.lastSwap = time.Since(start)
	e.closing = c
	go e.runDayClose(c)
	return c
}

// markerOnly returns, sorted, the marker domains their shard's builder does
// not hold — what the lease-less records add to the day's distinct-domain
// count beyond the builders' own domains. markers[i] and parts[i] are shard
// i's: a domain routes to one shard however it is seen, so a marker can only
// meet its domain's visits there, and no two sets share a domain.
func markerOnly(markers []map[string]struct{}, parts []*profile.IncrementalBuilder) []string {
	var out []string
	for i, set := range markers {
		for d := range set {
			if !parts[i].HasDomain(d) {
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// dayStats derives a day's normalization statistics from its per-shard
// partials and their merged snapshot, for day-close and Preview alike.
func dayStats(snap *profile.Snapshot, parts []*profile.IncrementalBuilder, markers []map[string]struct{},
	records, droppedIP uint64, unresolved int) normalize.ProxyStats {
	stats := normalize.ProxyStats{
		Records:           int(records),
		DomainsAll:        snap.AllDomains + len(markerOnly(markers, parts)),
		DroppedIPLiteral:  int(droppedIP),
		DroppedUnresolved: unresolved,
	}
	for _, p := range parts {
		stats.Kept += p.Visits()
	}
	return stats
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
	snap := profile.ClassifyDisjoint(c.day, c.parts, e.hist, pcfg.UnpopularThreshold, pcfg.Workers)
	stats := dayStats(snap, c.parts, c.markers, c.records, c.droppedIP, c.unresolved)
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

// Stats snapshots the engine. It quiesces the shards briefly, so it is not
// free; poll it at human timescales.
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
// live automated pairs (maxLive 0: uncapped) in a single shard quiesce —
// one atomic freeze instead of two for pollers that want both. The live
// figures are derived inside the freeze from the shards' builders; nothing
// is kept resident for them.
func (e *Engine) Snapshot(maxLive int) (Stats, []LivePair) {
	e.mu.Lock()
	defer e.mu.Unlock()
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
