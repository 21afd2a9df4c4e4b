package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of an
// ascending sample, at fraction q of the way through it. Empty samples
// read 0.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// midmean is the interquartile mean: the mean of the middle half of the
// sample, with fractional weight for an observation that straddles a
// quarter boundary. Like the median it ignores a stalled quarter of the
// repeats; unlike the median it does not flip between the modes of a
// two-humped sample, and on a well-behaved one it is the steadier of the
// two.
func midmean(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	n := float64(len(s))
	lo, hi := n/4, 3*n/4
	sum, weight := 0.0, 0.0
	for i, x := range s {
		if w := math.Min(float64(i+1), hi) - math.Max(float64(i), lo); w > 0 {
			sum += w * x
			weight += w
		}
	}
	return sum / weight
}

// tailPercentile picks the highest of p99, p95 and p90 that still has at
// least ten samples beyond it, and returns it with its label; with fewer
// than 101 samples no tail qualifies and it reports the median as "p50".
func tailPercentile(v []float64) (float64, string) {
	s := sorted(v)
	for _, p := range []struct {
		pct   int
		label string
	}{{99, "p99"}, {95, "p95"}, {90, "p90"}} {
		if len(s)*(100-p.pct)/100 >= 10 {
			return quantile(s, float64(p.pct)/100), p.label
		}
	}
	return quantile(s, 0.5), "p50"
}

// series holds one timing per slot of a repeated protocol, pass by pass:
// every pass of a run sends the same inputs through the same steps, so slot
// k of one pass measures the same thing as slot k of another. Slots differ
// from each other by design (some days close more than others); passes
// differ only by noise.
type series struct {
	passes [][]float64
}

func (s *series) add(pass int, v float64) {
	for len(s.passes) <= pass {
		s.passes = append(s.passes, nil)
	}
	s.passes[pass] = append(s.passes[pass], v)
}

// dividedBy returns the series with every timing of pass p divided by
// by[p].
func (s *series) dividedBy(by []float64) *series {
	out := &series{passes: make([][]float64, len(s.passes))}
	for p, v := range s.passes {
		out.passes[p] = make([]float64, len(v))
		for k, x := range v {
			out.passes[p][k] = x / by[p]
		}
	}
	return out
}

// n is the number of timings held.
func (s *series) n() int {
	n := 0
	for _, p := range s.passes {
		n += len(p)
	}
	return n
}

// slotTimes returns, per slot, the midmean over the passes: a stall that
// hits a quarter of the passes moves no slot.
func (s *series) slotTimes() []float64 {
	var out []float64
	for k := 0; ; k++ {
		var at []float64
		for _, p := range s.passes {
			if k < len(p) {
				at = append(at, p[k])
			}
		}
		if len(at) == 0 {
			return out
		}
		out = append(out, midmean(at))
	}
}

// typical is the mean of the slot times: what one slot of the protocol
// takes, averaged over the protocol's slots.
func (s *series) typical() float64 {
	m := s.slotTimes()
	if len(m) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum / float64(len(m))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
