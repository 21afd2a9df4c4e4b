package histogram

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func beacon(n int, period, jitter float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = period + (rng.Float64()*2-1)*jitter
	}
	return out
}

func TestIntervals(t *testing.T) {
	base := time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)
	times := []time.Time{
		base.Add(240 * time.Second), // deliberately unsorted
		base,
		base.Add(120 * time.Second),
	}
	got := Intervals(times)
	want := []float64{120, 120}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
	if Intervals(times[:1]) != nil {
		t.Error("single timestamp should yield nil intervals")
	}
	// Caller's slice must not be mutated.
	if !times[0].Equal(base.Add(240 * time.Second)) {
		t.Error("Intervals mutated its input")
	}
	// An already-sorted series (ties included) is read in place and yields
	// the same intervals as its shuffled form.
	sorted := []time.Time{base, base.Add(120 * time.Second), base.Add(120 * time.Second), base.Add(240 * time.Second)}
	shuffled := []time.Time{sorted[3], sorted[1], sorted[0], sorted[2]}
	if a, b := Intervals(sorted), Intervals(shuffled); !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, []float64{120, 0, 120}) {
		t.Errorf("sorted input gives %v, shuffled %v, want [120 0 120]", a, b)
	}
}

func TestBuildClusters(t *testing.T) {
	// 120s beacon with ±3s jitter and one outlier at 3600s.
	intervals := []float64{120, 118, 122, 121, 119, 3600, 120, 117}
	h := Build(intervals, 10)
	if len(h.Bins) != 2 {
		t.Fatalf("expected 2 bins, got %d: %+v", len(h.Bins), h.Bins)
	}
	hub, share := h.DominantHub()
	if hub != 120 {
		t.Errorf("dominant hub = %v, want 120 (the first interval)", hub)
	}
	if share != 7.0/8.0 {
		t.Errorf("dominant share = %v, want 7/8", share)
	}
	if h.Total != len(intervals) {
		t.Errorf("total = %d, want %d", h.Total, len(intervals))
	}
}

func TestBuildEmpty(t *testing.T) {
	h := Build(nil, 10)
	if h.Total != 0 || len(h.Bins) != 0 {
		t.Errorf("empty build should be empty: %+v", h)
	}
	hub, share := h.DominantHub()
	if hub != 0 || share != 0 {
		t.Errorf("empty DominantHub = %v, %v", hub, share)
	}
}

func TestJeffreyDivergenceProperties(t *testing.T) {
	a := Build([]float64{120, 121, 119, 120}, 10)
	ref := PeriodicReference(120, a.Total)

	if d := JeffreyDivergence(a, a, 10); d > 1e-12 {
		t.Errorf("self divergence = %v, want 0", d)
	}
	if d := JeffreyDivergence(a, ref, 10); d > 1e-12 {
		t.Errorf("tight beacon vs reference = %v, want ~0", d)
	}

	// Disjoint histograms reach the maximum 2·log 2.
	b := Build([]float64{5000, 5001}, 10)
	if d := JeffreyDivergence(a, b, 10); math.Abs(d-2*math.Log(2)) > 1e-9 {
		t.Errorf("disjoint divergence = %v, want %v", d, 2*math.Log(2))
	}
}

func TestJeffreyDivergenceSymmetry(t *testing.T) {
	f := func(xs, ys []float64) bool {
		// Clamp to sane interval values.
		trim := func(v []float64) []float64 {
			out := make([]float64, 0, len(v))
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				out = append(out, math.Mod(math.Abs(x), 10000))
			}
			return out
		}
		a := Build(trim(xs), 10)
		b := Build(trim(ys), 10)
		d1 := JeffreyDivergence(a, b, 10)
		d2 := JeffreyDivergence(b, a, 10)
		// Hub alignment is greedy so perfect symmetry is not guaranteed for
		// pathological hub layouts, but both orders must agree on
		// "close vs far" around the operating threshold regime.
		return (d1 <= 0.2) == (d2 <= 0.2) || math.Abs(d1-d2) < 0.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJeffreyDivergenceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		trim := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			trim = append(trim, math.Mod(math.Abs(x), 10000))
		}
		h := Build(trim, 10)
		period, _ := h.DominantHub()
		ref := PeriodicReference(period, h.Total)
		return JeffreyDivergence(h, ref, 10) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestJeffreyDivergenceIsPure pins both distances as functions of their
// arguments. They sum floats bin by bin, so the bins must be walked in a
// fixed order: over a map, Go's randomized iteration shows in the sum's last
// digits (and, for L1Distance's greedy matching, in the value).
func TestJeffreyDivergenceIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = float64(rng.Intn(40))*25 + rng.Float64()
		}
		h, k := Build(xs[:200], 10), Build(xs[200:], 10)
		if len(h.Bins) < 5 || len(k.Bins) < 5 {
			t.Fatalf("trial %d: %d and %d bins, want at least 5 each", trial, len(h.Bins), len(k.Bins))
		}
		j, l1 := JeffreyDivergence(h, k, 10), L1Distance(h, k, 10)
		for call := 0; call < 100; call++ {
			if got := JeffreyDivergence(h, k, 10); got != j {
				t.Fatalf("trial %d call %d: JeffreyDivergence = %v, first call %v", trial, call, got, j)
			}
			if got := L1Distance(h, k, 10); got != l1 {
				t.Fatalf("trial %d call %d: L1Distance = %v, first call %v", trial, call, got, l1)
			}
		}
	}
}

func TestAnalyzePeriodicDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()

	// Perfect 600s beacon.
	v := Analyze(beacon(20, 600, 0, rng), cfg)
	if !v.Automated {
		t.Errorf("perfect beacon not detected: %+v", v)
	}
	if v.Period != 600 {
		t.Errorf("period = %v, want 600", v.Period)
	}

	// Beacon with jitter within half the bin width (the hub is the first
	// interval, so a total spread of 2*jitter <= W always clusters).
	v = Analyze(beacon(20, 600, 4, rng), cfg)
	if !v.Automated {
		t.Errorf("jittered beacon not detected: %+v", v)
	}

	// Beacon with a single large outlier — the motivating case for dynamic
	// histograms over standard deviation.
	ivs := beacon(20, 600, 5, rng)
	ivs[10] = 7200
	v = Analyze(ivs, cfg)
	if !v.Automated {
		t.Errorf("beacon with outlier not detected: %+v", v)
	}
}

func TestAnalyzeHumanNotDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	// Human browsing: heavy-tailed, highly variable gaps.
	ivs := make([]float64, 30)
	for i := range ivs {
		ivs[i] = math.Exp(rng.Float64()*6) + rng.Float64()*400
	}
	v := Analyze(ivs, cfg)
	if v.Automated {
		t.Errorf("variable human traffic misclassified as automated: %+v", v)
	}
}

func TestAnalyzeTooFewSamples(t *testing.T) {
	cfg := DefaultConfig()
	v := Analyze([]float64{600, 600}, cfg)
	if v.Automated {
		t.Error("two intervals must not yield an automated verdict")
	}
	if v.Samples != 2 {
		t.Errorf("samples = %d, want 2", v.Samples)
	}
}

func TestAnalyzeTimes(t *testing.T) {
	base := time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)
	var times []time.Time
	for i := 0; i < 10; i++ {
		times = append(times, base.Add(time.Duration(i)*10*time.Minute))
	}
	v := AnalyzeTimes(times, DefaultConfig())
	if !v.Automated || v.Period != 600 {
		t.Errorf("10-minute beacon: %+v", v)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Raising JT can only grow the set labeled automated (Table II trend).
	rng := rand.New(rand.NewSource(3))
	var series [][]float64
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			series = append(series, beacon(15, 300, float64(i), rng))
		} else {
			ivs := make([]float64, 15)
			for j := range ivs {
				ivs[j] = rng.Float64() * 2000
			}
			series = append(series, ivs)
		}
	}
	count := func(jt float64) int {
		cfg := Config{BinWidth: 10, Threshold: jt}
		n := 0
		for _, ivs := range series {
			if Analyze(ivs, cfg).Automated {
				n++
			}
		}
		return n
	}
	lo, mid, hi := count(0.0), count(0.06), count(0.35)
	if lo > mid || mid > hi {
		t.Errorf("automated counts not monotone in JT: %d, %d, %d", lo, mid, hi)
	}
}

func TestBinWidthResilience(t *testing.T) {
	// Larger W absorbs more jitter: a beacon with 15s jitter is caught at
	// W=20 but not at W=5 with a tight threshold.
	rng := rand.New(rand.NewSource(4))
	ivs := beacon(30, 600, 15, rng)
	tight := Analyze(ivs, Config{BinWidth: 5, Threshold: 0.06})
	wide := Analyze(ivs, Config{BinWidth: 20, Threshold: 0.06})
	if tight.Automated {
		t.Errorf("W=5 should not absorb 15s jitter: %+v", tight)
	}
	if !wide.Automated {
		t.Errorf("W=20 should absorb 15s jitter: %+v", wide)
	}
}

func TestL1Distance(t *testing.T) {
	a := Build([]float64{120, 121, 119, 120}, 10)
	ref := PeriodicReference(120, a.Total)
	if d := L1Distance(a, ref, 10); d > 1e-12 {
		t.Errorf("L1 tight beacon = %v, want 0", d)
	}
	b := Build([]float64{5000, 5001}, 10)
	if d := L1Distance(a, b, 10); math.Abs(d-2) > 1e-9 {
		t.Errorf("L1 disjoint = %v, want 2", d)
	}
	if d := L1Distance(a, a, 10); d > 1e-12 {
		t.Errorf("L1 self = %v, want 0", d)
	}
}

func TestL1AgreesWithJeffreyOnVerdicts(t *testing.T) {
	// The paper found the two metrics "very similar" — sanity-check that
	// clear beacons and clear noise sort the same way under both.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		var ivs []float64
		if i%2 == 0 {
			ivs = beacon(20, 450, 3, rng)
		} else {
			ivs = make([]float64, 20)
			for j := range ivs {
				ivs[j] = rng.Float64() * 5000
			}
		}
		h := Build(ivs, 10)
		p, _ := h.DominantHub()
		ref := PeriodicReference(p, h.Total)
		jeff := JeffreyDivergence(h, ref, 10) <= 0.06
		l1 := L1Distance(h, ref, 10) <= 0.1
		if jeff != l1 {
			t.Errorf("series %d: jeffrey=%v l1=%v (intervals %v)", i, jeff, l1, ivs[:5])
		}
	}
}

func TestAnalyzeDegenerateSeries(t *testing.T) {
	cfg := DefaultConfig()
	// All connections at the same instant: intervals of zero. A zero
	// "period" is perfectly self-consistent, so the verdict is automated —
	// and such instant retries are indeed machine traffic.
	v := Analyze([]float64{0, 0, 0, 0, 0}, cfg)
	if !v.Automated || v.Period != 0 {
		t.Errorf("zero intervals: %+v", v)
	}
	// A single repeated large interval is a clean beacon.
	v = Analyze([]float64{86400, 86400, 86400, 86400}, cfg)
	if !v.Automated {
		t.Errorf("day-period beacon: %+v", v)
	}
	// Empty input.
	v = Analyze(nil, cfg)
	if v.Automated || v.Samples != 0 {
		t.Errorf("empty: %+v", v)
	}
}

func TestIntervalsWithDuplicateTimes(t *testing.T) {
	base := time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC)
	ivs := Intervals([]time.Time{base, base, base.Add(time.Minute)})
	if len(ivs) != 2 || ivs[0] != 0 || ivs[1] != 60 {
		t.Errorf("intervals = %v", ivs)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BinWidth != 10 || cfg.Threshold != 0.06 || cfg.MinConnections != 4 {
		t.Errorf("DefaultConfig = %+v, want paper's W=10, JT=0.06 and 4 connections", cfg)
	}
	var zero Config
	if zero.minConns() != 4 {
		t.Errorf("zero-value MinConnections should default to 4, got %d", zero.minConns())
	}
}
