package stream

import (
	"hash/maphash"

	"repro/internal/logs"
	"repro/internal/normalize"
)

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
	base, err := e.accept(len(recs))
	if err != nil {
		return err
	}
	defer e.mu.RUnlock()
	e.routeBatchLocked(recs, base)
	return nil
}

// AcceptBatch is IngestBatch split at its commit point. It returns once the
// batch is accepted — the open day checked and the batch's sequence range
// reserved, so batches accepted one after another take sequence numbers in
// acceptance order — and routes the records on a goroutine of their own,
// which keeps the engine's read lock until they are routed: BeginDay, Flush,
// Snapshot, Checkpoint, Preview and Close wait out every accepted batch. An
// error (ErrClosed, ErrNoDay) means none of the batch was accepted. routed
// is called exactly once, when the engine no longer reads recs: after
// routing, or before an error or empty-batch return. Safe for concurrent
// use.
//
// The engine bounds what is in flight, for every caller at once: while
// 2 × Shards accepted batches are still routing, AcceptBatch blocks before
// it takes the lock, so no caller — an HTTP handler, a listener connection,
// a replay — leads routing by more than that, and the record buffers it has
// handed over are bounded with it.
func (e *Engine) AcceptBatch(recs []logs.ProxyRecord, routed func()) error {
	if len(recs) == 0 {
		routed()
		return nil
	}
	e.routing <- struct{}{}
	base, err := e.accept(len(recs))
	if err != nil {
		<-e.routing
		routed()
		return err
	}
	go func() {
		e.routeBatchLocked(recs, base)
		routed()
		e.mu.RUnlock() // the read-hold taken by accept
		<-e.routing
	}()
	return nil
}

// accept takes mu shared and, when a day is open, returns still holding it,
// with the n sequence numbers after the returned base reserved for the batch
// and the batch counted into dayRecords, so a Snapshot taken after the ack
// counts it even while it still routes; on error it returns with mu
// released. totalRecords counts the batch once it is routed.
func (e *Engine) accept(n int) (uint64, error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return 0, ErrClosed
	}
	if e.day.IsZero() {
		e.mu.RUnlock()
		return 0, ErrNoDay
	}
	e.dayRecords.Add(uint64(n))
	return e.seq.Add(uint64(n)) - uint64(n), nil
}

// routeBatchLocked routes recs into the open day under the sequence numbers
// accept reserved after base. Each record reduces via the shared per-record
// reducer into a per-shard buffer; the one reservation and at most one
// channel send per shard replace the per-record atomics and sends the engine
// used before batching. A send blocks while its shard's queue is full — safe,
// because the workers always drain: a control request that needs the
// exclusive lock cannot be issued while we hold it shared, and Snapshot's,
// issued under the shared lock, holds its worker only for a read. Caller
// holds mu (shared).
func (e *Engine) routeBatchLocked(recs []logs.ProxyRecord, base uint64) {
	n := len(recs)

	sc := e.getScratch()
	defer e.putScratch(sc)

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

	e.totalRecords.Add(uint64(n))
	if droppedIP > 0 {
		e.dayDroppedIP.Add(droppedIP)
	}
}
