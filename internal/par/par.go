// Package par provides the bounded fan-out primitive the day-close stages
// share: run n independent index-addressed tasks over a worker pool, with
// each task writing only its own result slot. The fan-out introduces no
// ordering — callers consume the slots in index order and observe exactly
// what a sequential loop would have produced, which is the determinism
// argument the parallel snapshot build, feature extraction, and belief
// propagation sweeps all rest on.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunk caps the run of consecutive indices a worker claims at once.
const maxChunk = 32

// ForEachIndex runs fn(i) for every i in [0, n), fanned over at most
// workers goroutines. workers <= 0 uses GOMAXPROCS; a pool of one (or
// n <= 1) runs inline with no goroutines. fn must confine its writes to
// per-index state.
//
// Workers claim runs of consecutive indices, not single ones: a day-close
// fans thousands of sub-microsecond tasks (one per rare domain), where one
// shared atomic add per index costs as much as the task. A run is at most
// maxChunk indices and at most an eighth of a worker's fair share, so a
// short or uneven list still spreads over every worker.
func ForEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := min(maxChunk, max(1, n/(8*workers)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(hi, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
