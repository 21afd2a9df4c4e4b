package stream

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/profile"
)

// TestApplySteadyStateAllocs is the alloc-regression gate for the apply
// path: on a warm day — builder aggregates and host activities created, the
// pooled item buffers grown — pushing a full working set through
// IngestBatch→applyBatch must average at most one allocation per record
// (the acceptance floor; in practice it is ~0, with the residue coming
// from the amortized growth of per-pair Times slices as the day gets
// longer). The quiesce inside the measured function makes the shard
// worker's allocations part of the reading, not a concurrent leak.
func TestApplySteadyStateAllocs(t *testing.T) {
	const n, batch = 4096, 512
	recs := benchRecords(n)
	e := trainOnlyEngine(Config{Shards: 1, QueueDepth: 8192})
	defer abandonEngine(e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	round := func() {
		for i := 0; i < n; i += batch {
			if err := e.IngestBatch(recs[i : i+batch]); err != nil {
				t.Fatal(err)
			}
		}
		// Drain the shard queue so every apply lands inside this round.
		e.quiesce(func(int, *shard) {})
	}
	round() // warm: builder aggregates, host activities, pooled buffers
	round()
	perRecord := testing.AllocsPerRun(10, round) / n
	if perRecord > 1.0 {
		t.Errorf("warm apply path allocates %.3f allocs/record, want <= 1", perRecord)
	}
	t.Logf("warm apply path: %.4f allocs/record", perRecord)

	// The shard fold alone, on a bare shard with a test-owned buffer (no
	// queue hop, no pool), so a zero is exact even under the race detector.
	items := buildItems(t, recs[:batch])
	buf := new([]item)
	foldOn := func(s *shard) func() {
		return func() {
			*buf = append((*buf)[:0], items...)
			s.applyBatch(buf)
		}
	}

	// Repeat visits to a domain the history does not hold: once the pairs
	// exist, the only allocation the fresh path may make is Times growth. Warm
	// until every pair has room for the measured folds, and the reading must be
	// exactly zero — no per-visit state beside the builder's.
	fs := newShard(e, 0)
	fold := foldOn(fs)
	const measured = 11 // AllocsPerRun(10, ·) runs its function 11 times
	room := func() bool {
		ok := true
		fs.part.EachProfiled(func(_ string, hosts []*profile.HostActivity) {
			for _, ha := range hosts {
				ok = ok && cap(ha.Times)-len(ha.Times) >= measured*batch/len(hosts)
			}
		})
		return ok
	}
	fold() // create the pairs
	for i := 0; !room(); i++ {
		if i == 100 {
			t.Fatal("Times never grew room for the measured folds")
		}
		fold()
	}
	if allocs := testing.AllocsPerRun(measured-1, fold); allocs != 0 {
		t.Errorf("warm fresh-domain batch allocates %.0f times beyond Times growth, want 0", allocs)
	}

	// The same batch once its domain is historical: every run folds as
	// known-domain markers, which must allocate nothing at all when warm and
	// leave the builder holding the domain as a marker and a count — no host
	// activity.
	ke := trainOnlyEngine(Config{Shards: 1})
	defer abandonEngine(ke)
	ke.hist.UpdateDomains(testDay().AddDate(0, 0, -1), []string{"example.net"})
	s := newShard(ke, 0)
	fold = foldOn(s)
	fold() // warm: marker aggregate, (host, UA) pairs, cache entry
	if allocs := testing.AllocsPerRun(10, fold); allocs != 0 {
		t.Errorf("warm known-domain batch allocates %.0f times, want 0", allocs)
	}
	var section bytes.Buffer
	if err := s.part.SaveTo(json.NewEncoder(&section)); err != nil {
		t.Fatal(err)
	}
	hosts, known := builderRecOf(t, section.Bytes(), "example.net")
	if hosts != 0 || known != 12*batch || s.knownVisits != known || s.part.Visits() != known {
		t.Errorf("builder holds %d host activities and %d known visits (shard counter %d, Visits %d), want 0 and %d",
			hosts, known, s.knownVisits, s.part.Visits(), 12*batch)
	}
}
