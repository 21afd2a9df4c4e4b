// Package histogram implements the paper's dynamic-histogram method for
// detecting automated (periodic) communication between a host and a domain
// (§IV-C). Inter-connection intervals are clustered into dynamically placed
// bins ("hubs") of width W, the resulting histogram is compared to the
// histogram of a perfectly periodic process with period equal to the
// highest-frequency hub, and the communication is labeled automated when the
// Jeffrey divergence between the two is below a threshold JT.
//
// The dynamic placement of bins is what gives the method its resilience to
// small timing randomization introduced by attackers and to occasional
// outliers (e.g., a laptop suspending overnight), which defeat the naive
// standard-deviation detector (see internal/baseline).
//
//lint:deterministic
package histogram

import (
	"math"
	"slices"
	"time"
)

// Bin is one dynamically placed histogram bin: a hub value (the first
// interval that opened the cluster) and the number of intervals assigned.
type Bin struct {
	Hub   float64 // representative interval in seconds
	Count int
}

// Histogram is a set of dynamic bins over inter-connection intervals.
type Histogram struct {
	Bins  []Bin
	Total int
}

// Config parameterizes the detector. The paper selects W = 10s and
// JT = 0.06 on the LANL training attacks (Table II).
type Config struct {
	// BinWidth W: an interval joins an existing cluster when it lies
	// within W seconds of the cluster hub; otherwise it opens a new one.
	BinWidth float64
	// Divergence threshold JT: histograms closer than this to the periodic
	// reference are labeled automated.
	Threshold float64
	// MinConnections is the minimum number of connections (intervals + 1)
	// required before a verdict is attempted; too few samples make the
	// histogram meaningless. The zero value defaults to 4.
	MinConnections int
}

// DefaultConfig returns the parameterization selected in §V-B.
func DefaultConfig() Config {
	return Config{BinWidth: 10, Threshold: 0.06, MinConnections: 4}
}

func (c Config) minConns() int {
	if c.MinConnections <= 0 {
		return 4
	}
	return c.MinConnections
}

// Intervals converts a series of connection timestamps into the
// inter-connection intervals (in seconds) between successive connections.
// The input need not be sorted: an unsorted series is sorted in a copy, never
// in the caller's slice. The day snapshot hands over each rare host's
// timestamps already in time order, and that common case is read in place.
func Intervals(times []time.Time) []float64 {
	if len(times) < 2 {
		return nil
	}
	sorted := times
	if !inOrder(times) {
		sorted = slices.Clone(times)
		slices.SortFunc(sorted, time.Time.Compare)
	}
	return appendIntervals(make([]float64, 0, len(sorted)-1), sorted)
}

// inOrder reports whether times are ascending (equal neighbours allowed):
// slices.IsSortedFunc with time.Time.Compare, inlined. The detect stage asks
// once per (host, rare domain) pair, of series classification has sorted.
func inOrder(times []time.Time) bool {
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			return false
		}
	}
	return true
}

// appendIntervals appends the intervals between successive sorted timestamps
// to dst.
func appendIntervals(dst []float64, sorted []time.Time) []float64 {
	for i := 1; i < len(sorted); i++ {
		dst = append(dst, sorted[i].Sub(sorted[i-1]).Seconds())
	}
	return dst
}

// Build clusters the intervals t1..tm into dynamic bins of width w.
// Following §IV-C, the first interval becomes the first cluster hub; each
// subsequent interval joins the first cluster whose hub is within w,
// otherwise it opens a new cluster with itself as hub.
func Build(intervals []float64, w float64) Histogram {
	return buildInto(nil, intervals, w)
}

// buildInto is Build appending the bins to bins[:0].
func buildInto(bins []Bin, intervals []float64, w float64) Histogram {
	h := Histogram{Bins: bins[:0]}
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

// DominantHub returns the hub of the highest-frequency bin — the candidate
// beacon period — and its share of all intervals. Ties break toward the
// earlier (first-created) bin, matching the incremental construction.
func (h Histogram) DominantHub() (hub float64, share float64) {
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

// PeriodicReference returns the histogram a perfectly periodic process with
// the given period would produce over the same number of intervals: all
// mass in a single bin at the period.
func PeriodicReference(period float64, total int) Histogram {
	return Histogram{Bins: []Bin{{Hub: period, Count: total}}, Total: total}
}

// freq is the share of h's intervals that fell in bin i.
func (h Histogram) freq(i int) float64 {
	return float64(h.Bins[i].Count) / float64(h.Total)
}

// bins is how many bins of h carry mass: none when h holds no interval.
func (h Histogram) bins() int {
	if h.Total == 0 {
		return 0
	}
	return len(h.Bins)
}

// The two distances below walk the histograms' bins in bin order and nothing
// else. They sum floats, float addition is not associative, and L1Distance's
// greedy matching depends on visiting order outright, so a walk over a map —
// whose order Go randomizes — would make the result differ between two calls
// with the same arguments. Hubs within one histogram are taken to be distinct,
// as Build makes them.

// JeffreyDivergence computes the Jeffrey divergence between two histograms
// H and K per Rubner et al.: d_J(H,K) = Σ_i ( h_i log(h_i/m_i) +
// k_i log(k_i/m_i) ) with m_i = (h_i + k_i)/2. Bins are matched by hub with
// tolerance w, by the same dynamic-clustering rule used during construction:
// a K bin shares the bin of the nearest H hub within w (the earlier bin on a
// tie) and stands alone when there is none.
// The result is 0 for identical histograms and grows toward 2·log 2 as the
// histograms become disjoint.
func JeffreyDivergence(h, k Histogram, w float64) float64 {
	return jeffrey(h, k, w, make([]float64, h.bins()+k.bins()))
}

// jeffrey is JeffreyDivergence with the K-mass vector supplied: kmass holds
// exactly h.bins()+k.bins() zeros.
func jeffrey(h, k Histogram, w float64, kmass []float64) float64 {
	nh, nk := h.bins(), k.bins()
	// kmass[i], i < nh, is the K mass that landed in H's bin i; a K bin j
	// that no H hub is within w of keeps its mass in slot nh+j.
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

// L1Distance computes the L1 (total variation ×2) distance between the two
// histograms with the same hub alignment rule as JeffreyDivergence. The
// paper reports results "very similar" to Jeffrey; we keep it for the
// ablation benches.
func L1Distance(h, k Histogram, w float64) float64 {
	nh, nk := h.bins(), k.bins()
	visited := make([]bool, nk)
	var d float64
	for i := 0; i < nh; i++ {
		fk := 0.0
		for j := 0; j < nk; j++ {
			if !visited[j] && math.Abs(k.Bins[j].Hub-h.Bins[i].Hub) <= w {
				fk += k.freq(j)
				visited[j] = true
			}
		}
		d += math.Abs(h.freq(i) - fk)
	}
	for j := 0; j < nk; j++ {
		if !visited[j] {
			d += k.freq(j)
		}
	}
	return d
}

// Verdict is the outcome of analyzing one (host, domain) connection series.
type Verdict struct {
	Automated  bool
	Period     float64 // dominant inter-connection interval in seconds
	Divergence float64 // Jeffrey divergence from the periodic reference
	Samples    int     // number of intervals analyzed
}

// Analyze applies the full §IV-C procedure to the inter-connection intervals
// of one (host, domain) pair on one day and reports whether the
// communication is automated.
func Analyze(intervals []float64, cfg Config) Verdict {
	if len(intervals)+1 < cfg.minConns() {
		return Verdict{Samples: len(intervals)}
	}
	return analyze(intervals, cfg, nil, nil)
}

// analyze is Analyze past its length check, building the histogram into
// bins[:0] and taking the divergence's mass vector from mass (zeroed) when
// it is long enough; nil scratch allocates.
func analyze(intervals []float64, cfg Config, bins []Bin, mass []float64) Verdict {
	h := buildInto(bins, intervals, cfg.BinWidth)
	period, _ := h.DominantHub()
	ref := PeriodicReference(period, h.Total)
	n := h.bins() + ref.bins()
	if len(mass) < n {
		mass = make([]float64, n)
	}
	div := jeffrey(h, ref, cfg.BinWidth, mass[:n])
	return Verdict{
		Automated:  div <= cfg.Threshold,
		Period:     period,
		Divergence: div,
		Samples:    len(intervals),
	}
}

// stackSeries is the number of timestamps AnalyzeTimes' stack buffers hold:
// its sorted copy, intervals, bins and divergence mass vector live in arrays
// on the stack, and only a longer series grows them onto the heap.
const stackSeries = 64

// AnalyzeTimes is Analyze over raw connection timestamps. A series below
// MinConnections gets its no-verdict answer before any interval is computed —
// most (host, domain) pairs of a day are that short. A series of up to
// stackSeries timestamps, sorted or not, is analyzed without allocating, to
// the same verdict bit for bit.
func AnalyzeTimes(times []time.Time, cfg Config) Verdict {
	if len(times) < cfg.minConns() {
		return Verdict{Samples: max(len(times)-1, 0)}
	}
	sorted := times
	var sortBuf [stackSeries]time.Time
	if !inOrder(times) {
		sorted = append(sortBuf[:0], times...)
		slices.SortFunc(sorted, time.Time.Compare)
	}
	var ivBuf [stackSeries - 1]float64
	var binBuf [stackSeries - 1]Bin // at most one bin per interval
	var massBuf [stackSeries]float64
	return analyze(appendIntervals(ivBuf[:0], sorted), cfg, binBuf[:0], massBuf[:])
}
