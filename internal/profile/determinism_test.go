package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// These tests back the byte-determinism half of the invariant catalog
// (DESIGN.md §5): every persisted form in this package — history, builder —
// must serialize to identical bytes for identical logical state, independent
// of map iteration order, insertion order, or how the state is cut into
// disjoint parts. The static half is
// reprolint's maporder analyzer; these tests are the runtime witness (Go
// randomizes map iteration per range, so a single unsorted emission fails
// them with high probability). A classified Snapshot is never persisted; its
// worker-count independence is TestSnapshotParallelMatchesSequential's, against
// referenceSnapshot.

func encodeBuilder(t *testing.T, b *IncrementalBuilder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.SaveTo(json.NewEncoder(&buf)); err != nil {
		t.Fatalf("builder SaveTo: %v", err)
	}
	return buf.Bytes()
}

func TestBuilderSaveBytesDeterministic(t *testing.T) {
	visits := codecVisits(400)
	whole := buildFromVisits(visits)

	// The same day cut by domain into disjoint parts and written in opposite
	// part orders: identical logical state, different map insertion history.
	parts := make([]*IncrementalBuilder, 4)
	for i := range parts {
		parts[i] = NewIncrementalBuilder()
	}
	for i := range visits {
		v := &visits[i]
		parts[domainOf(v.Domain, len(parts))].Add(uint64(i+1), v)
	}
	encodeParts := func(ps []*IncrementalBuilder) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ps[0].SaveTo(json.NewEncoder(&buf), ps[1:]...); err != nil {
			t.Fatalf("builder SaveTo: %v", err)
		}
		return buf.Bytes()
	}
	rev := slices.Clone(parts)
	slices.Reverse(rev)

	first := encodeBuilder(t, whole)
	for run := 0; run < 3; run++ {
		if got := encodeBuilder(t, whole); !bytes.Equal(got, first) {
			t.Fatalf("run %d: re-encoding the same builder changed the bytes", run)
		}
	}
	if got := encodeParts(parts); !bytes.Equal(got, first) {
		t.Fatalf("sharding leaked into builder checkpoint bytes")
	}
	if got := encodeParts(rev); !bytes.Equal(got, first) {
		t.Fatalf("part order leaked into builder checkpoint bytes")
	}
}

// TestRunGroupingSaveBytesProperty is the determinism contract behind the
// streaming engine's batched apply path: a day fed as domain runs — random
// consecutive batch partitions, each batch grouped into per-domain runs
// applied in scrambled order through the Run cursor — must checkpoint to
// bytes identical to the plain sequential build. Legality rests on the
// builder being a pure function of the (seq, visit) set and on the cursor's
// host memo being run-scoped, so no state leaks between runs that a fresh
// cursor wouldn't recreate. (The engine folds the runs a batch already contains;
// this regrouping is the harder case.)
func TestRunGroupingSaveBytesProperty(t *testing.T) {
	day := time.Date(2014, 3, 2, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		visits := randomVisits(rng, day, 500+rng.Intn(2500))

		ref := NewIncrementalBuilder()
		for i := range visits {
			ref.Add(uint64(i+1), &visits[i])
		}
		want := encodeBuilder(t, ref)

		b := NewIncrementalBuilder()
		for start := 0; start < len(visits); {
			end := min(start+1+rng.Intn(400), len(visits))
			// Group the batch into per-domain runs, order preserved within
			// each run.
			runs := make(map[string][]int)
			var order []string
			for i := start; i < end; i++ {
				d := visits[i].Domain
				if _, ok := runs[d]; !ok {
					order = append(order, d)
				}
				runs[d] = append(runs[d], i)
			}
			rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
			for _, d := range order {
				c := b.Run(d)
				for _, i := range runs[d] {
					c.Add(uint64(i+1), &visits[i])
				}
			}
			start = end
		}
		if got := encodeBuilder(t, b); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: run-grouped apply changed the builder checkpoint bytes", seed)
		}
		// The persisted form is the stronger claim; the merged snapshot
		// (what reports read) must agree too.
		hist := NewHistory()
		assertSnapshotsEqual(t, fmt.Sprintf("seed=%d", seed),
			MergeSnapshotParallel(day, []*IncrementalBuilder{b}, hist, 10, 1),
			MergeSnapshotParallel(day, []*IncrementalBuilder{ref}, hist, 10, 1))
	}
}

func TestHistorySaveBytesDeterministic(t *testing.T) {
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	domains := []string{"d3.test", "d1.test", "d2.test", "d0.test"}
	uas := [][2]string{{"h1", "agent/1"}, {"h0", "agent/1"}, {"h2", "agent/2"}, {"h1", "agent/2"}}

	build := func(reverse bool) *History {
		h := NewHistory()
		ds := append([]string(nil), domains...)
		us := append([][2]string(nil), uas...)
		if reverse {
			for i, j := 0, len(ds)-1; i < j; i, j = i+1, j-1 {
				ds[i], ds[j] = ds[j], ds[i]
			}
			for i, j := 0, len(us)-1; i < j; i, j = i+1, j-1 {
				us[i], us[j] = us[j], us[i]
			}
		}
		h.UpdateDomains(day, ds)
		for _, u := range us {
			h.UpdateUA(u[0], u[1])
		}
		return h
	}

	encode := func(h *History) []byte {
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			t.Fatalf("history Save: %v", err)
		}
		return buf.Bytes()
	}

	a, b := build(false), build(true)
	first := encode(a)
	for run := 0; run < 3; run++ {
		if got := encode(a); !bytes.Equal(got, first) {
			t.Fatalf("run %d: re-encoding the same history changed the bytes", run)
		}
	}
	if got := encode(b); !bytes.Equal(got, first) {
		t.Fatalf("insertion order leaked into history bytes")
	}
}
