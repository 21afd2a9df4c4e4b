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
// single channel operation; AcceptBatch returns once the range is reserved
// and leaves the rest to a goroutine that holds the engine lock (shared)
// until the batch is routed, and blocks while 2 × Shards such batches are
// still routing — the one bound on how far any caller leads routing. Each
// shard owns its slice of the day state — a partial day
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
	"math"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// routing holds one slot per batch AcceptBatch has accepted and not yet
	// routed; its capacity, 2 × Shards, is the most any caller leads by.
	routing chan struct{}

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
		routing:   make(chan struct{}, 2*cfg.Shards),
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
