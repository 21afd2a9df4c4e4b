package profile

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
	day, hist, visits := contractDay(t)
	for _, workers := range []int{1, 2, 4} {
		check(t, fmt.Sprintf("NewSnapshotParallel workers=%d", workers),
			NewSnapshotParallel(day, slices.Clone(visits), hist, 10, workers))
		for parts := 1; parts <= 4; parts++ {
			check(t, fmt.Sprintf("ClassifyDisjoint parts=%d workers=%d", parts, workers),
				ClassifyDisjoint(day, cutParts(visits, parts, byDomain), hist, 10, workers))
		}
	}
}

// contractDay is the classification contract's day: large enough to fan out
// (over parallelCutoff), 1,400 domains of which every 7th of the first 200 is
// historical and every 50th popular, the rest rare with one to three of 40
// hosts, every (host, domain) pair's timestamps shuffled.
func contractDay(t *testing.T) (time.Time, *History, []logs.Visit) {
	t.Helper()
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
	return day, hist, visits
}

// cutParts folds visits, seq = index, into n builders, visit i into
// builder cut(visit, n).
func cutParts(visits []logs.Visit, n int, cut func(v *logs.Visit, n int) int) []*IncrementalBuilder {
	bs := make([]*IncrementalBuilder, n)
	for p := range bs {
		bs[p] = NewIncrementalBuilder()
	}
	for i := range visits {
		bs[cut(&visits[i], n)].Add(uint64(i), &visits[i])
	}
	return bs
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

// byDomain and byPair cut a visit to one of n parts: by domain, as the
// streaming shards and NewSnapshotParallel cut a day, and by (host, domain)
// pair, which spreads a domain's hosts over parts.
func byDomain(v *logs.Visit, n int) int { return domainOf(v.Domain, n) }
func byPair(v *logs.Visit, n int) int   { return PairPartition(v.Host, v.Domain, n) }

// TestHostRareContract holds host_rdom to the reference scan's index through
// both classification entries — domain-disjoint parts and parts that split a
// domain's hosts — at 1–4 workers and 1–4 parts: for every host of the day,
// HostRare lists exactly the reference's rare domains, in domain order, and
// nil for a host whose every domain is historical or popular.
func TestHostRareContract(t *testing.T) {
	day, hist, visits := contractDay(t)
	visits = append(visits,
		logs.Visit{Time: day, Host: "only-known", Domain: "d0000.example"},   // historical
		logs.Visit{Time: day, Host: "only-popular", Domain: "d0050.example"}, // new, 13 hosts
	)
	want := referenceSnapshot(day, visits, hist, 10)
	hosts := make(map[string]bool)
	for i := range visits {
		hosts[visits[i].Host] = true
	}
	for _, h := range []string{"only-known", "only-popular"} {
		if want.HostRare(h) != nil {
			t.Fatalf("fixture: %s contacts rare domains %v", h, want.HostRare(h))
		}
	}
	for workers := 1; workers <= 4; workers++ {
		for parts := 1; parts <= 4; parts++ {
			for _, c := range []struct {
				name string
				snap *Snapshot
			}{
				{"ClassifyDisjoint", ClassifyDisjoint(day, cutParts(visits, parts, byDomain), hist, 10, workers)},
				{"MergeSnapshotParallel", MergeSnapshotParallel(day, cutParts(visits, parts, byPair), hist, 10, workers)},
			} {
				for h := range hosts {
					if got, want := c.snap.HostRare(h), want.HostRare(h); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s parts=%d workers=%d: HostRare(%q) = %v, want %v", c.name, parts, workers, h, got, want)
					}
				}
			}
		}
	}
}

// TestHostRareConcurrentFirstCalls: goroutines racing to be the first
// HostRare caller all read one index (run it under -race).
func TestHostRareConcurrentFirstCalls(t *testing.T) {
	day, hist, visits := contractDay(t)
	s := ClassifyDisjoint(day, cutParts(visits, 2, byDomain), hist, 10, 2)
	const callers = 8
	got := make([][]string, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = s.HostRare("host-07")
		}()
	}
	start.Done()
	done.Wait()
	if len(got[0]) == 0 {
		t.Fatal("host-07 contacts no rare domain")
	}
	for i := range got {
		if len(got[i]) != len(got[0]) || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d read %v, caller 0 %v: not one index", i, got[i], got[0])
		}
	}
}

// TestUnaskedSnapshotBuildsNoHostIndex: classification and the readers of the
// rare set leave host_rdom unbuilt; the first HostRare call builds it.
func TestUnaskedSnapshotBuildsNoHostIndex(t *testing.T) {
	day, hist, visits := contractDay(t)
	s := NewSnapshotParallel(day, visits, hist, 10, 2)
	if s.RareCount() == 0 || len(s.RareActivities()) != len(s.Rare) {
		t.Fatalf("%d rare domains", s.RareCount())
	}
	if s.hostRare != nil {
		t.Fatal("classification built the host index")
	}
	if s.HostRare("host-00") == nil || s.hostRare == nil {
		t.Fatal("HostRare did not build the host index")
	}
}
