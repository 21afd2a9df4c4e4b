package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachIndex: every index is visited exactly once, for pools smaller
// than, equal to and larger than n, for the GOMAXPROCS default, and for n on
// either side of the claimed runs' bounds (maxChunk, and runs cut short by
// the end of the range).
func TestForEachIndex(t *testing.T) {
	for _, n := range []int{0, 1, 7, 31, 32, 33, 1000, 4097} {
		for _, workers := range []int{0, 1, 2, 3, 8, n - 1, n, n + 3} {
			visits := make([]atomic.Int32, n)
			ForEachIndex(n, workers, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForEachIndexInlineWhenPoolIsOne: a pool of one (asked for, or forced
// by n <= 1 or GOMAXPROCS = 1) runs on the calling goroutine, in index
// order, starting no goroutine.
func TestForEachIndexInlineWhenPoolIsOne(t *testing.T) {
	check := func(label string, n, workers int) {
		t.Helper()
		before := runtime.NumGoroutine()
		var order []int // unsynchronized on purpose: -race flags any fan-out
		ForEachIndex(n, workers, func(i int) {
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("%s: %d goroutines inside fn, %d before the call", label, g, before)
			}
			order = append(order, i)
		})
		if len(order) != n {
			t.Fatalf("%s: visited %d indexes, want %d", label, len(order), n)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("%s: visit order %v, want ascending", label, order)
			}
		}
	}
	check("workers=1", 7, 1)
	check("n=1", 1, 4)
	check("n=0", 0, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("workers=0 at GOMAXPROCS=1", 7, 0)
}
