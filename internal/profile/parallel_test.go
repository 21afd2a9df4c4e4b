package profile

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/logs"
)

// randomVisits synthesizes a messy day: skewed domain popularity, repeat
// visits, missing UAs/referers, sparse DestIPs and URLs — everything the
// aggregation folds — so the parallel/sequential comparison covers the
// order-sensitive details (first-seen IP, the 16-path cap, per-host visit
// order).
func randomVisits(rng *rand.Rand, day time.Time, n int) []logs.Visit {
	visits := make([]logs.Visit, 0, n)
	for i := 0; i < n; i++ {
		var domain string
		switch rng.Intn(4) {
		case 0: // domain already in the history, many hosts
			domain = fmt.Sprintf("known-%d.example", rng.Intn(40))
		case 1:
			domain = fmt.Sprintf("popular-%d.example", rng.Intn(10))
		default: // long tail of fresh rare domains
			domain = fmt.Sprintf("rare-%d.example", rng.Intn(600))
		}
		v := logs.Visit{
			Time:   day.Add(time.Duration(rng.Intn(86400)) * time.Second),
			Host:   fmt.Sprintf("host-%02d", rng.Intn(30)),
			Domain: domain,
			HasRef: rng.Intn(3) != 0,
		}
		if rng.Intn(2) == 0 {
			v.HasUA = true
			v.UserAgent = fmt.Sprintf("agent/%d", rng.Intn(6))
		}
		if rng.Intn(3) != 0 {
			v.DestIP = netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(250))})
		}
		if rng.Intn(2) == 0 {
			v.URL = fmt.Sprintf("http://%s/path-%d/page-%d?q", domain, rng.Intn(25), rng.Intn(4))
		}
		visits = append(visits, v)
	}
	return visits
}

// TestSnapshotParallelMatchesSequential: NewSnapshotParallel must produce
// the snapshot of the sequential reference scan — same rare set, same
// per-host activity (visit ordering included), same counts and indexes —
// for any worker count, including counts far above GOMAXPROCS, on days
// below and above parallelCutoff.
func TestSnapshotParallelMatchesSequential(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))

	hist := NewHistory()
	// Pre-seed the history so "new" classification has both outcomes.
	var known []string
	for i := 0; i < 40; i++ {
		known = append(known, fmt.Sprintf("known-%d.example", i))
	}
	hist.UpdateDomains(day.AddDate(0, 0, -30), known)

	for _, n := range []int{parallelCutoff - 1000, 9000} {
		visits := randomVisits(rng, day, n)
		want := referenceSnapshot(day, visits, hist, 10)
		for _, workers := range []int{1, 2, 3, 4, 7, 64, 0} {
			got := NewSnapshotParallel(day, visits, hist, 10, workers)
			assertSnapshotsEqual(t, fmt.Sprintf("visits=%d workers=%d", n, workers), got, want)
		}
	}
}

// TestSnapshotParallelSmallDayFallsBack: tiny days skip the fan-out (the
// partition pass would dominate) but must go through the same code path
// semantically.
func TestSnapshotParallelSmallDayFallsBack(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	visits := randomVisits(rng, day, 64)
	hist := NewHistory()
	want := NewSnapshot(day, visits, hist, 10)
	got := NewSnapshotParallel(day, visits, hist, 10, 8)
	if !reflect.DeepEqual(got.Rare, want.Rare) || got.AllDomains != want.AllDomains {
		t.Fatal("small-day parallel snapshot differs from sequential")
	}
}
