package profile

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/logs"
)

// TestClassifyContract pins what classification hands the detect stage,
// which reads it without re-checking: RareActivities is strictly ascending by
// domain and holds exactly Rare's values, and every rare host's Times is
// ascending. The day is large enough to fan out (over parallelCutoff), every
// (host, domain) pair's timestamps arrive shuffled, and the parts are cut
// by domain, as the streaming shards and NewSnapshotParallel cut them.
func TestClassifyContract(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(41))
	hist := NewHistory()
	var known []string
	for i := 0; i < 200; i++ {
		known = append(known, fmt.Sprintf("d%04d.example", 7*i))
	}
	hist.UpdateDomains(day.AddDate(0, 0, -1), known)

	var visits []logs.Visit
	for d := 0; d < 1400; d++ {
		domain := fmt.Sprintf("d%04d.example", d)
		hosts := 1 + d%3
		if d%50 == 0 {
			hosts = 12 // popular: new but not rare
		}
		for h := 0; h < hosts; h++ {
			start := day.Add(time.Duration(rng.Intn(80000)) * time.Second)
			for k := 0; k < 1+rng.Intn(5); k++ {
				visits = append(visits, logs.Visit{
					Time:   start.Add(time.Duration(k) * time.Minute),
					Host:   fmt.Sprintf("host-%02d", (d+h)%40),
					Domain: domain,
				})
			}
		}
	}
	rng.Shuffle(len(visits), func(i, j int) { visits[i], visits[j] = visits[j], visits[i] })
	if len(visits) < parallelCutoff {
		t.Fatalf("%d visits: below parallelCutoff, the fan-out would not run", len(visits))
	}

	for _, workers := range []int{1, 2, 4} {
		check(t, fmt.Sprintf("NewSnapshotParallel workers=%d", workers),
			NewSnapshotParallel(day, slices.Clone(visits), hist, 10, workers))
		for parts := 1; parts <= 4; parts++ {
			bs := make([]*IncrementalBuilder, parts)
			for p := range bs {
				bs[p] = NewIncrementalBuilder()
			}
			for i := range visits {
				bs[domainOf(visits[i].Domain, parts)].Add(uint64(i), &visits[i])
			}
			check(t, fmt.Sprintf("ClassifyDisjoint parts=%d workers=%d", parts, workers),
				ClassifyDisjoint(day, bs, hist, 10, workers))
		}
	}
}

func check(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	rare := s.RareActivities()
	if len(rare) != len(s.Rare) || len(rare) == 0 {
		t.Fatalf("%s: %d activities, %d in Rare", label, len(rare), len(s.Rare))
	}
	unsorted := 0
	for i, da := range rare {
		if i > 0 && rare[i-1].Domain >= da.Domain {
			t.Fatalf("%s: %q follows %q", label, da.Domain, rare[i-1].Domain)
		}
		if s.Rare[da.Domain] != da {
			t.Fatalf("%s: Rare[%q] is not the listed activity", label, da.Domain)
		}
		for _, ha := range da.Hosts {
			if !slices.IsSortedFunc(ha.Times, time.Time.Compare) {
				unsorted++
			}
		}
	}
	if unsorted > 0 {
		t.Fatalf("%s: %d rare (host, domain) pairs with Times out of order", label, unsorted)
	}
}
