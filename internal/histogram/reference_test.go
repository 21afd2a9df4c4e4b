package histogram

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The reference periodicity test is AnalyzeTimes as it stood before its short
// series stopped allocating: Intervals → Build → DominantHub →
// PeriodicReference → JeffreyDivergence, copied verbatim, each step on freshly
// allocated slices. FuzzAnalyzeTimes holds the production path to it field
// for field. No production code calls it.

func naiveAnalyzeTimes(times []time.Time, cfg Config) Verdict {
	if len(times) < cfg.minConns() {
		return Verdict{Samples: max(len(times)-1, 0)}
	}
	return naiveAnalyze(naiveIntervals(times), cfg)
}

func naiveAnalyze(intervals []float64, cfg Config) Verdict {
	if len(intervals)+1 < cfg.minConns() {
		return Verdict{Samples: len(intervals)}
	}
	h := naiveBuild(intervals, cfg.BinWidth)
	period, _ := naiveDominantHub(h)
	ref := naivePeriodicReference(period, h.Total)
	div := naiveJeffreyDivergence(h, ref, cfg.BinWidth)
	return Verdict{
		Automated:  div <= cfg.Threshold,
		Period:     period,
		Divergence: div,
		Samples:    len(intervals),
	}
}

func naiveIntervals(times []time.Time) []float64 {
	if len(times) < 2 {
		return nil
	}
	sorted := times
	if !slices.IsSortedFunc(times, time.Time.Compare) {
		sorted = slices.Clone(times)
		slices.SortFunc(sorted, time.Time.Compare)
	}
	out := make([]float64, 0, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		out = append(out, sorted[i].Sub(sorted[i-1]).Seconds())
	}
	return out
}

func naiveBuild(intervals []float64, w float64) Histogram {
	h := Histogram{}
	for _, ti := range intervals {
		placed := false
		for i := range h.Bins {
			if math.Abs(ti-h.Bins[i].Hub) <= w {
				h.Bins[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			h.Bins = append(h.Bins, Bin{Hub: ti, Count: 1})
		}
		h.Total++
	}
	return h
}

func naiveDominantHub(h Histogram) (hub float64, share float64) {
	best := -1
	for i, b := range h.Bins {
		if best < 0 || b.Count > h.Bins[best].Count {
			best = i
		}
	}
	if best < 0 || h.Total == 0 {
		return 0, 0
	}
	return h.Bins[best].Hub, float64(h.Bins[best].Count) / float64(h.Total)
}

func naivePeriodicReference(period float64, total int) Histogram {
	return Histogram{Bins: []Bin{{Hub: period, Count: total}}, Total: total}
}

func naiveJeffreyDivergence(h, k Histogram, w float64) float64 {
	nh, nk := h.bins(), k.bins()
	kmass := make([]float64, nh+nk)
	for j := 0; j < nk; j++ {
		best, bestDist := nh+j, math.Inf(1)
		for i := 0; i < nh; i++ {
			if d := math.Abs(k.Bins[j].Hub - h.Bins[i].Hub); d <= w && d < bestDist {
				best, bestDist = i, d
			}
		}
		kmass[best] += k.freq(j)
	}

	var d float64
	for i, pk := range kmass {
		ph := 0.0
		if i < nh {
			ph = h.freq(i)
		}
		m := (ph + pk) / 2
		if ph > 0 {
			d += ph * math.Log(ph/m)
		}
		if pk > 0 {
			d += pk * math.Log(pk/m)
		}
	}
	return d
}

// fuzzSeries decodes a timestamp series from fuzz bytes: each 4-byte word is
// a gap in milliseconds from the previous timestamp, its top bit asking for a
// step back instead (so a series can arrive out of order), and a zero word
// repeats the previous timestamp.
func fuzzSeries(data []byte) []time.Time {
	t := time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)
	var out []time.Time
	for ; len(data) >= 4; data = data[4:] {
		w := binary.LittleEndian.Uint32(data)
		gap := time.Duration(w&0x7fffffff) * time.Millisecond
		if w&0x80000000 != 0 {
			gap = -gap
		}
		t = t.Add(gap)
		out = append(out, t)
	}
	return out
}

// seriesBytes encodes gaps (in milliseconds, negative = a step back) the way
// fuzzSeries decodes them.
func seriesBytes(gaps []int64) []byte {
	var b []byte
	for _, g := range gaps {
		w := uint32(g)
		if g < 0 {
			w = uint32(-g) | 0x80000000
		}
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// FuzzAnalyzeTimes: AnalyzeTimes returns exactly the reference's verdict —
// floats compared bit for bit — on any series, sorted or not, short enough to
// run on the stack or not, and on any bin width, threshold and minimum.
func FuzzAnalyzeTimes(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	beaconGaps := func(n int, period, jitter int64, shuffle bool) []int64 {
		gaps := make([]int64, n)
		for i := range gaps {
			gaps[i] = period + rng.Int63n(2*jitter+1) - jitter
		}
		if shuffle { // steps back: the decoded series arrives out of order
			for i := 1; i < n; i += 3 {
				gaps[i] = -gaps[i]
			}
		}
		return gaps
	}
	for _, n := range []int{3, 4, 5, 63, 64, 65, 130} {
		f.Add(seriesBytes(beaconGaps(n, 60_000, 2_000, false)), 10.0, 0.06, uint8(4))
		f.Add(seriesBytes(beaconGaps(n, 60_000, 2_000, true)), 10.0, 0.06, uint8(4))
		f.Add(seriesBytes(beaconGaps(n, 300_000, 250_000, false)), 10.0, 0.06, uint8(0))
	}
	f.Add(seriesBytes([]int64{5000, 0, 0, 5000, 0, 5000, 0}), 10.0, 0.06, uint8(4)) // duplicate timestamps
	f.Add(seriesBytes([]int64{0, 0, 0, 0}), 0.0, 0.0, uint8(1))
	// The order check's edges: equal neighbours are in order, and a single
	// step back at either end of the series is not.
	f.Add(seriesBytes([]int64{60_000, 0, 60_000, 0, 60_000, 60_000}), 10.0, 0.06, uint8(4))
	f.Add(seriesBytes([]int64{60_000, -1, 60_000, 60_000, 60_000, 60_000}), 10.0, 0.06, uint8(4))
	f.Add(seriesBytes([]int64{60_000, 60_000, 60_000, 60_000, 60_000, -1}), 10.0, 0.06, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, width, threshold float64, minConns uint8) {
		cfg := Config{BinWidth: width, Threshold: threshold, MinConnections: int(minConns)}
		times := fuzzSeries(data)
		before := slices.Clone(times)
		got, want := AnalyzeTimes(times, cfg), naiveAnalyzeTimes(times, cfg)
		if got.Automated != want.Automated || got.Samples != want.Samples ||
			math.Float64bits(got.Period) != math.Float64bits(want.Period) ||
			math.Float64bits(got.Divergence) != math.Float64bits(want.Divergence) {
			t.Fatalf("%d timestamps, %+v: AnalyzeTimes = %+v, reference %+v", len(times), cfg, got, want)
		}
		if !slices.Equal(times, before) {
			t.Fatal("AnalyzeTimes reordered the caller's series")
		}
	})
}

// TestAnalyzeTimesAllocs: a series of up to 64 timestamps — sorted or not,
// automated or not — is analyzed without allocating.
func TestAnalyzeTimesAllocs(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	base := time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{4, 17, 63, 64} {
		for _, jitter := range []float64{1, 400} { // a beacon, and traffic with as many bins as intervals
			times := make([]time.Time, n)
			at := base
			for i, iv := range beacon(n, 600, jitter, rng) {
				at = at.Add(time.Duration(iv * float64(time.Second)))
				times[i] = at
			}
			shuffled := slices.Clone(times)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for name, series := range map[string][]time.Time{"sorted": times, "shuffled": shuffled} {
				if allocs := testing.AllocsPerRun(20, func() { AnalyzeTimes(series, cfg) }); allocs != 0 {
					t.Errorf("%d timestamps, jitter %v s, %s: %.0f allocations, want 0", n, jitter, name, allocs)
				}
			}
		}
	}
}
