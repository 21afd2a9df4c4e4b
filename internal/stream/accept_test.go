package stream

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/report"
)

// holdShard parks s's worker inside a control request until release is
// called; batches queued for it wait. release is idempotent, so a test can
// defer it and still release early.
func holdShard(s *shard) (release func()) {
	held, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.ctrl <- ctrlReq{fn: func(*shard) { close(held); <-rel }, done: done}
	<-held
	var once sync.Once
	return func() { once.Do(func() { close(rel); <-done }) }
}

// stillBlocked fails the test if done closes within a short grace: the call
// behind it must wait while a routing goroutine holds the engine's read
// lock. (It cannot return early on a correct engine, so the grace only
// bounds how long a broken one takes to be caught.)
func stillBlocked(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while an accepted batch was still routing", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestAcceptBatchAcksBeforeRouting pins AcceptBatch's split: it returns once
// the batch is accepted — its sequence range already reserved — while the
// routing goroutine is still blocked on a held shard, and every call that
// reads or changes the open day (BeginDay, Snapshot, Close) waits the routing
// out. Batches accepted one after another take sequence ranges in acceptance
// order, and the closed day equals the batch pipeline over the accepted
// records in that order.
func TestAcceptBatchAcksBeforeRouting(t *testing.T) {
	fx := newEquivFixture(t, 83)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	last := len(days) - 1 // an operation day
	ref := fx.newPipeline()
	e := New(Config{Shards: 2, QueueDepth: 1, TrainingDays: fx.training}, fx.newPipeline())
	for i, d := range days[:last] {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i < fx.training {
			ref.Train(d.Date, recs, leases)
		} else {
			ref.Process(d.Date, recs, leases)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	day := days[last].Date
	recs, leases, err := batch.LoadProxyDay(days[last])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BeginDay(day, leases); err != nil {
		t.Fatal(err)
	}
	// Five parts of the day, in acceptance order: p1 and p2 fill the held
	// shard's one queue slot, a, b and c are accepted behind them.
	n := len(recs) / 5
	p1, a, b, p2, c := recs[:n], recs[n:2*n], recs[2*n:3*n], recs[3*n:4*n], recs[4*n:]

	var routed atomic.Int32
	accept := func(part []logs.ProxyRecord) {
		t.Helper()
		before := e.seq.Load()
		if err := e.AcceptBatch(part, func() { routed.Add(1) }); err != nil {
			t.Fatal(err)
		}
		if got, want := e.seq.Load(), before+uint64(len(part)); got != want {
			t.Fatalf("seq counter %d when AcceptBatch returned, want %d: the batch's range is not reserved at acceptance", got, want)
		}
	}
	run := func(f func()) <-chan struct{} {
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		return done
	}

	// Phase 1: two batches accepted behind a held shard. BeginDay (the same
	// day: it takes the lock and touches no shard) waits for both. Snapshot
	// quiesces the shards, so the held worker alone would stall it; what it
	// reads shows it waited for the routing.
	release := holdShard(e.shards[0])
	defer release()
	if err := e.IngestBatch(p1); err != nil {
		t.Fatal(err)
	}
	accept(a)
	accept(b)
	if got := routed.Load(); got != 0 {
		t.Fatalf("%d accepted batches routed past a held shard with a full queue", got)
	}
	began := run(func() {
		if err := e.BeginDay(day, leases); err != nil {
			t.Error(err)
		}
	})
	stillBlocked(t, "BeginDay", began)
	var st Stats
	snapped := run(func() { st, _ = e.Snapshot(-1) })
	stillBlocked(t, "Snapshot", snapped)
	release()
	<-began
	<-snapped
	if got := routed.Load(); got != 2 {
		t.Fatalf("routed called %d times after both batches routed, want 2", got)
	}
	if want := uint64(len(p1) + len(a) + len(b)); st.DayRecords != want {
		t.Fatalf("Snapshot after the routing: dayRecords %d, want the accepted %d", st.DayRecords, want)
	}

	// Phase 2: Close waits out a batch accepted behind the held shard (it
	// quiesces the shards too; the report below shows it closed a day
	// holding the batch).
	release = holdShard(e.shards[0])
	defer release()
	if err := e.IngestBatch(p2); err != nil {
		t.Fatal(err)
	}
	accept(c)
	closed := run(e.Close)
	stillBlocked(t, "Close", closed)
	release()
	<-closed
	if got := routed.Load(); got != 3 {
		t.Fatalf("routed called %d times, want 3", got)
	}

	want := dailyBytes(t, report.Build(ref.Process(day, recs, leases)))
	got, ok := e.Report(day.Format("2006-01-02"))
	if !ok {
		t.Fatal("closed day has no report")
	}
	if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, want) {
		t.Errorf("day closed from accepted batches differs from batch\nbatch:  %s\nstream: %s", want, gotJSON)
	}
}

// TestAcceptBatchBoundsRouting pins the engine's in-flight bound. With the
// one shard's worker held, the first accepted batch routes into the shard's
// one queue slot and the next 2 × Shards park in their routing goroutines on
// the full queue; the call after them blocks in AcceptBatch until the worker
// is released, and then returns. Every accepted record still lands: the closed
// day equals the batch pipeline over them in acceptance order.
func TestAcceptBatchBoundsRouting(t *testing.T) {
	fx := newEquivFixture(t, 83)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	last := len(days) - 1 // an operation day
	ref := fx.newPipeline()
	e := New(Config{Shards: 1, QueueDepth: 1, TrainingDays: fx.training}, fx.newPipeline())
	for i, d := range days[:last] {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i < fx.training {
			ref.Train(d.Date, recs, leases)
		} else {
			ref.Process(d.Date, recs, leases)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	day := days[last].Date
	recs, leases, err := batch.LoadProxyDay(days[last])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BeginDay(day, leases); err != nil {
		t.Fatal(err)
	}

	queued := e.cfg.QueueDepth
	blocks := queued + 2*e.cfg.Shards // the 0-based call the bound stops
	parts := make([][]logs.ProxyRecord, blocks+2)
	n := len(recs) / len(parts)
	for i := range parts {
		parts[i] = recs[i*n : (i+1)*n]
	}
	parts[len(parts)-1] = recs[(len(parts)-1)*n:]
	accept := func(part []logs.ProxyRecord) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := e.AcceptBatch(part, func() {}); err != nil {
				t.Error(err)
			}
		}()
		return done
	}

	release := holdShard(e.shards[0])
	defer release()
	for i, part := range parts {
		done := accept(part)
		select {
		case <-done:
			if i == blocks {
				t.Fatalf("AcceptBatch %d returned with %d batches routing into a full queue, want it to wait (bound 2 × %d shards)",
					i+1, i-queued, e.cfg.Shards)
			}
			continue
		case <-time.After(100 * time.Millisecond):
		}
		if i != blocks {
			t.Fatalf("AcceptBatch %d blocked, want %d to be the first (%d queued + 2 × %d shards routing)",
				i+1, blocks+1, queued, e.cfg.Shards)
		}
		release()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("AcceptBatch still blocked after the shard was released")
		}
	}
	e.Close()

	want := dailyBytes(t, report.Build(ref.Process(day, recs, leases)))
	got, ok := e.Report(day.Format("2006-01-02"))
	if !ok {
		t.Fatal("closed day has no report")
	}
	if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, want) {
		t.Errorf("day closed from bounded accepts differs from batch\nbatch:  %s\nstream: %s", want, gotJSON)
	}
}

// TestSnapshotBesideIngest pins Snapshot's shared hold of the engine lock.
// With two shards, shard 0's worker held and a Snapshot waiting on it, a
// batch whose records all route to shard 1 is still ingested: IngestBatch
// returns, and AcceptBatch returns and routes. An engine whose Snapshot held
// the lock exclusively would park both behind it until shard 0 let go. Once
// released, the Snapshot returns, and the next one counts both batches on
// shard 1 and in the open day.
func TestSnapshotBesideIngest(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer abandonEngine(e)
	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	var recs []logs.ProxyRecord
	var red normalize.ProxyReducer
	for i := 0; len(recs) < 64; i++ {
		r := rec(testDay(), fmt.Sprintf("host-%d", i%5), fmt.Sprintf("www.dom-%d.example", i), time.Duration(i)*time.Second)
		if _, folded, _ := red.Key(&r, nil); e.shardIndex(folded) == 1 {
			recs = append(recs, r)
		}
	}
	within := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s while a Snapshot waited on another shard", what)
		}
	}

	release := holdShard(e.shards[0])
	defer release()
	snapped := make(chan struct{})
	go func() { defer close(snapped); e.Snapshot(-1) }()
	// The Snapshot holds the lock once an exclusive TryLock fails; it cannot
	// return before shard 0 is released.
	for e.mu.TryLock() {
		e.mu.Unlock()
		time.Sleep(time.Millisecond)
	}

	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		if err := e.IngestBatch(recs); err != nil {
			t.Error(err)
		}
	}()
	within("IngestBatch", ingested)
	routed := make(chan struct{})
	if err := e.AcceptBatch(recs, func() { close(routed) }); err != nil {
		t.Fatal(err)
	}
	within("AcceptBatch's routing", routed)
	select {
	case <-snapped:
		t.Fatal("Snapshot returned while shard 0 was held")
	default:
	}

	release()
	within("Snapshot", snapped)
	st := e.Stats()
	if want := uint64(2 * len(recs)); st.DayRecords != want || st.TotalRecords != want || st.Shards[1].Ingested != want || st.Shards[0].Ingested != 0 {
		t.Fatalf("after both batches: dayRecords %d, totalRecords %d, shard ingested %d / %d; want %d, %d, 0 / %d",
			st.DayRecords, st.TotalRecords, st.Shards[0].Ingested, st.Shards[1].Ingested, want, want, want)
	}
}
