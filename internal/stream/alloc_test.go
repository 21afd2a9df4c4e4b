package stream

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestApplySteadyStateAllocs is the alloc-regression gate for the apply
// path: on a warm day — live per-domain states resolved, builder
// aggregates and host activities created, the pooled item buffers and the
// grouping scratch grown — pushing a full working set through
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
	round() // warm: live states, builder cursors, pooled buffers
	round()
	perRecord := testing.AllocsPerRun(10, round) / n
	if perRecord > 1.0 {
		t.Errorf("warm apply path allocates %.3f allocs/record, want <= 1", perRecord)
	}
	t.Logf("warm apply path: %.4f allocs/record", perRecord)

	// The same batch once its domain is historical: every run folds as
	// known-domain markers, which must allocate nothing at all when warm and
	// leave the builder holding the domain as a marker and a count — no host
	// activity. Measured on a bare shard with a test-owned buffer (no queue
	// hop, no pool), so the zero is exact even under the race detector.
	ke := trainOnlyEngine(Config{Shards: 1})
	defer abandonEngine(ke)
	ke.hist.UpdateDomains(testDay().AddDate(0, 0, -1), []string{"example.net"})
	s := newShard(ke, 0)
	items := buildItems(t, recs[:batch])
	buf := new([]item)
	fold := func() {
		*buf = append((*buf)[:0], items...)
		s.applyBatch(buf)
	}
	fold() // warm: domain state, marker aggregate, (host, UA) pairs, cache entry
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
	if len(s.domains["example.net"].hosts) != 0 {
		t.Error("known domain grew live analyzers")
	}
}
