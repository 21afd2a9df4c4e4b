package stream

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/logs"
	"repro/internal/profile"
)

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
			// Apply the batches queued when the request arrived, and only
			// those: under the engine's exclusive lock (rollover, checkpoint,
			// preview, close) nothing can be routed meanwhile, so that is
			// the complete prefix; under the shared lock (Snapshot) routing
			// goes on, and the request sees the shard as it stood when it
			// arrived instead of chasing the queue.
			for n := len(s.batches); n > 0; n-- {
				s.applyBatch(<-s.batches)
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

// quiesce runs fn against every shard on its worker goroutine, after the
// worker has applied the batches queued when the request reached it. Under
// mu held exclusively no record can be routed meanwhile, so every shard is
// frozen at the same complete prefix; under mu held shared (Snapshot) each
// shard answers with its own state at that moment while routing continues.
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
