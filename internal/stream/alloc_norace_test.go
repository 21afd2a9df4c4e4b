//go:build !race

package stream

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/logs"
)

// Zero-allocation pins live behind !race: under the race detector sync.Pool
// deliberately drops a quarter of its Puts, so a pooled buffer is reallocated
// every few rounds and an exact zero cannot hold.

// raceEnabled lets a test that also runs under -race skip its exact heap
// readings there (race_test.go sets it).
const raceEnabled = false

// TestRouteBatchAllocs pins the reader-side half of IngestBatch at zero
// allocations per batch once the pools are warm: records are read through
// their pointers, reduced straight into pooled per-shard buffers, and the
// domain memo is a stack value. The shard workers are stopped and the test
// plays them — take each routed buffer, hand it back to the pool — so the
// reading is routeBatchLocked alone, not the apply path behind it.
func TestRouteBatchAllocs(t *testing.T) {
	// benchRecords' one folded domain would reach one shard only.
	recs := spreadDomains(benchRecords(512))
	recs[7].Domain = "203.0.113.9" // an IP literal: dropped, not routed
	recs[9].Host = ""              // no lease on file: routed as a bare domain marker
	e := trainOnlyEngine(Config{Shards: 2})
	defer abandonEngine(e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range e.shards {
		close(s.batches)
		e.shards[i] = newShard(e, 1)
	}
	round := func() {
		e.routeBatchLocked(recs, 0)
		// The route has returned, so every touched shard's buffer is queued:
		// take what is there rather than wait on a shard the batch skipped.
		for _, s := range e.shards {
			select {
			case b := <-s.batches:
				e.putBuf(b)
			default:
			}
		}
	}
	round() // warm: pooled scratch and item buffers grown to the batch
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("routeBatchLocked allocates %.0f times per batch, want 0", allocs)
	}
	if got := e.dayDroppedIP.Load(); got != 22 {
		t.Errorf("dropped %d IP-literal records over 22 rounds, want 22", got)
	}

	// Cold pool (every second GC cycle empties it): each touched shard gets
	// one buffer, sized once for its share of the batch — the slice header
	// the pool and the shard queue pass around plus its backing array, and no
	// regrowth on the way to holding the share. Every record is its own
	// domain here, so the split is even to within the slack whatever the
	// engine's hash seed.
	for i := range recs {
		recs[i].Domain = fmt.Sprintf("d%d.example", i)
	}
	// The collector stays off for the reading: the dropped buffers would
	// otherwise trigger cycles that empty the scratch pool too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for e.bufPool.Get() != nil {
	}
	cold := func() {
		e.routeBatchLocked(recs, 0)
		for _, s := range e.shards {
			<-s.batches // dropped, not recycled: the next round misses again
		}
	}
	if allocs, want := testing.AllocsPerRun(20, cold), float64(2*len(e.shards)); allocs != want {
		t.Errorf("routeBatchLocked on a cold pool allocates %.0f times per batch, want %.0f (one buffer per touched shard)", allocs, want)
	}
}

// TestRouteBufferFitsBatch: a pooled route buffer left by a short batch — a
// day file's last chunk, a small TCP batch — does not serve a large batch by
// append-doubling. The large batch's routing allocates exactly what it does on
// a cold pool: one buffer per touched shard, sized once for its share.
func TestRouteBufferFitsBatch(t *testing.T) {
	small := spreadDomains(benchRecords(64))
	large := benchRecords(4096)
	for i := range large { // every record its own domain: an even split
		large[i].Domain = fmt.Sprintf("d%d.example", i)
	}
	e := trainOnlyEngine(Config{Shards: 2})
	defer abandonEngine(e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	// The test plays the shard workers, as in TestRouteBatchAllocs.
	for i, s := range e.shards {
		close(s.batches)
		e.shards[i] = newShard(e, 1)
	}
	// One P and no collection: the pool keeps exactly what was put in it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for e.bufPool.Get() != nil {
	}
	ingest := func(recs []logs.ProxyRecord, recycle bool) {
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, s := range e.shards {
			select {
			case b := <-s.batches:
				if recycle {
					e.putBuf(b)
				}
			default:
			}
		}
	}
	ingest(small, true) // the pool now holds the short batch's buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(large, false)
	runtime.ReadMemStats(&after)
	if got, want := after.Mallocs-before.Mallocs, uint64(2*len(e.shards)); got != want {
		t.Errorf("routing a %d-record batch after a %d-record one allocates %d times, want %d (one fresh buffer per touched shard, no regrowth)",
			len(large), len(small), got, want)
	}
}
