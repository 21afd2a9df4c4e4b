package main

import (
	"context"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/stream"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("quantile interpolates to %v, want 2.5", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		label string
	}{{99, "p50"}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}} {
		if _, label := tailPercentile(seq(c.n)); label != c.label {
			t.Errorf("%d samples: %s, want %s", c.n, label, c.label)
		}
	}
	if v, _ := tailPercentile(seq(1001)); v != 990 {
		t.Errorf("p99 of 0..1000 = %v, want 990", v)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{5, 1, 3}, 3},                  // (0.25*1 + 3 + 0.25*5) / 1.5
		{[]float64{1, 2, 3, 100}, 2.5},           // the outer two dropped whole
		{[]float64{1, 2, 3, 4, 1000}, 3},         // (0.75*2 + 3 + 0.75*4) / 2.5
		{[]float64{2, 2, 2, 2, 4, 4, 4, 4}, 3},   // two humps: in between, not on one
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 4.5}, // 3..6
	} {
		if got := midmean(c.in); !near(got, c.want) {
			t.Errorf("midmean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSeriesIgnoresAStalledPass(t *testing.T) {
	var s series
	// Four passes of two slots; the last pass stalled.
	for pass, vals := range [][]float64{{10, 100}, {11, 101}, {12, 102}, {50, 500}} {
		for _, v := range vals {
			s.add(pass, v)
		}
	}
	if got := s.slotTimes(); len(got) != 2 || got[0] != 11.5 || got[1] != 101.5 {
		t.Errorf("slot times = %v, want [11.5 101.5]", got)
	}
	if got := s.typical(); got != 56.5 {
		t.Errorf("typical = %v, want 56.5", got)
	}
	// A pass may hold fewer slots than the others: the later slots rest on
	// the passes that have them.
	var ragged series
	ragged.add(1, 7)
	ragged.add(1, 9)
	ragged.add(2, 5)
	if got := ragged.slotTimes(); len(got) != 2 || got[0] != 6 || got[1] != 9 || ragged.n() != 3 {
		t.Errorf("ragged passes: slot times %v of %d, want [6 9] of 3", got, ragged.n())
	}
}

// Every timing of a pass is divided by that pass's slowdown, so a pass the
// box ran a half slower reads like the others.
func TestSeriesDividedByThePassSlowdown(t *testing.T) {
	var s series
	for pass, vals := range [][]float64{{10, 100}, {15, 150}, {10, 100}} {
		for _, v := range vals {
			s.add(pass, v)
		}
	}
	at := s.dividedBy([]float64{1, 1.5, 1})
	if got := at.slotTimes(); len(got) != 2 || !near(got[0], 10) || !near(got[1], 100) {
		t.Errorf("slot times at the reference speed = %v, want [10 100]", got)
	}
	if s.passes[1][0] != 15 {
		t.Errorf("dividedBy changed the measured timings")
	}
	o := &observations{ingestMS: s, reportLat: s, slow: []float64{1, 1.5, 1}, ingestRecords: []int{1000, 10000}}
	paced, _ := o.endToEnd(3, true, map[string]int{})
	free, _ := o.endToEnd(3, false, map[string]int{})
	if want := 11000 / 0.110; !near(free["ingest_rec_s"], want) || paced["ingest_rec_s"] >= want {
		t.Errorf("ingest_rec_s = %v unpaced (want %v at the reference speed) and %v paced (want it as measured, lower)",
			free["ingest_rec_s"], want, paced["ingest_rec_s"])
	}
	if !near(paced["report_latency_ms"], 55) || paced["setup_s"] != 3 {
		t.Errorf("report_latency_ms = %v, setup_s = %v, want 55 and 3", paced["report_latency_ms"], paced["setup_s"])
	}
}

// The calibration is the same work every time: whole or cut into the
// queue's chunks, it reads the same fields to the same sum.
func TestCalibrationIsFixedWork(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	if len(a.chunks) != calibLines/calibChunkLines {
		t.Fatalf("%d chunks, want %d", len(a.chunks), calibLines/calibChunkLines)
	}
	sum := func(c *calibrator) (total uint64) {
		var out []byte
		for _, chunk := range c.chunks {
			var s uint64
			s, out = c.work(chunk, out)
			total += s
		}
		return total
	}
	if sum(a) != sum(b) || sum(a) == 0 {
		t.Errorf("two calibrators read %d and %d, want the same non-zero sum", sum(a), sum(b))
	}
	lines := 0
	for _, chunk := range a.chunks {
		lines += strings.Count(string(chunk), "\n")
	}
	if lines != calibLines {
		t.Errorf("%d lines, want %d", lines, calibLines)
	}
	if s := a.slowdown(); s <= 0 || a.last <= 0 {
		t.Errorf("slowdown = %v after a visit of %v ms", s, a.last)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 1, Start: 15, End: 25},    // grandchild: not the root's to subtract
		{ID: 3, Parent: 0, Start: 50, End: 70},    // sibling
		{ID: 4, Parent: 0, Start: 60, End: 80},    // sibling overlapping the previous one
		{ID: 5, Parent: 0, Start: 95, End: 120},   // runs past the parent: clipped
		{ID: 6, Parent: -1, Start: 200, End: 210}, // a second root, no children
	}
	want := []int64{100 - 30 - 30 - 5, 30 - 10, 10, 20, 20, 25, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNests(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.do("outer", "d", func() {
		tr.do("inner", "d", func() {})
		tr.do("inner", "d", func() {})
	})
	tr.do("next", "d", func() {})
	parents := []int{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.End < s.Start {
			t.Errorf("span %d (%s): parent %d, want %d; start %d end %d", i, s.Name, s.Parent, parents[i], s.Start, s.End)
		}
	}
}

// The pacer times a batch from the instant it was due, and never waits for
// one that is already late.
func TestPacerSchedule(t *testing.T) {
	p := newPacer(500, 100_000) // 5 ms apart
	if p.interval != 5*time.Millisecond {
		t.Fatalf("interval = %v, want 5ms", p.interval)
	}
	p.start = time.Now().Add(-time.Second) // the generator is a second behind
	for i := 0; i < 3; i++ {
		before := time.Now()
		due, err := p.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := p.start.Add(time.Duration(i) * p.interval); !due.Equal(want) {
			t.Errorf("batch %d due %v, want %v", i, due, want)
		}
		if waited := time.Since(before); waited > 2*time.Millisecond {
			t.Errorf("batch %d waited %v though it was late", i, waited)
		}
	}
	p = newPacer(500, 100_000)
	due, _ := p.next(context.Background())
	due, _ = p.next(context.Background())
	if time.Now().Before(due) {
		t.Errorf("batch 1 was released before it was due")
	}
	if unpaced := newPacer(500, 0); unpaced.interval != 0 {
		t.Errorf("rate 0 must be unpaced")
	}
}

func datasetSHA(ds *dataset) [sha256.Size]byte {
	h := sha256.New()
	for i := range ds.days {
		h.Write(ds.days[i].tsv)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestDatasetDeterministicAndStablyMerged(t *testing.T) {
	a, b, other := generate(21, churn, true), generate(21, churn, true), generate(22, churn, true)
	if datasetSHA(a) != datasetSHA(b) {
		t.Errorf("the same seed generated different bytes")
	}
	if datasetSHA(a) == datasetSHA(other) {
		t.Errorf("another seed generated the same bytes")
	}
	if len(a.days) != totalDays {
		t.Fatalf("%d days, want %d", len(a.days), totalDays)
	}
	dec := logs.NewProxyDecoder()
	for i := range a.days {
		d := &a.days[i]
		var prev logs.ProxyRecord
		truth, filler := 0, 0
		for k := 0; k < d.records(); k++ {
			line := d.slice(k, k+1)
			r, err := dec.ParseProxyRecord(line[:len(line)-1])
			if err != nil {
				t.Fatalf("day %d record %d: %v", i, k, err)
			}
			utc := func(r logs.ProxyRecord) time.Time { return r.Time.Add(-time.Duration(r.TZOffset) * time.Hour) }
			if k > 0 {
				if utc(r).Before(utc(prev)) {
					t.Fatalf("day %d record %d is earlier than the one before it", i, k)
				}
				// Stable: among equal timestamps the truth stream stays ahead
				// of the filler it was merged with.
				if utc(r).Equal(utc(prev)) && r.Host == "" && prev.Host != "" {
					t.Fatalf("day %d record %d: a truth record follows a filler record of the same instant", i, k)
				}
			}
			if r.Host == "" {
				truth++
			} else if strings.HasPrefix(r.Host, "f-") {
				filler++
			} else {
				t.Fatalf("day %d record %d: host %q is neither truth nor filler", i, k, r.Host)
			}
			prev = r
		}
		if truth == 0 || filler == 0 {
			t.Errorf("day %d: %d truth and %d filler records, want both", i, truth, filler)
		}
	}
}

func loadDecl(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

func TestDeclarationIsWellFormed(t *testing.T) {
	decl := loadDecl(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range decl.Workloads {
		check(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("declared workloads %v, implemented %v", names, workloadNames())
	}
	setup := false
	for _, m := range decl.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("setup_s (s, lower is better) is not declared")
	}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", decl.RunSeconds)
	}
}

// warmInProcess stands in for the reprod subprocess of set-up: it replays
// the warm-up days through an engine wired the same way and checkpoints it.
func warmInProcess(t *testing.T, ds *dataset, dir string) {
	t.Helper()
	pipe, _, _ := newPipeline(ds.truth)
	eng := stream.New(stream.Config{Shards: 2, TrainingDays: trainingDays}, pipe)
	defer eng.Close()
	if err := stream.ReplayDir(eng, ds.warmDir, stream.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	ds.warmCkpt = filepath.Join(dir, "warm.ckpt")
	f, err := os.Create(ds.warmCkpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := eng.Checkpoint(f); err != nil {
		t.Fatal(err)
	}
}

// The traced pass on a smoke-sized dataset: its hand-composed reports must
// equal the engine's and the internal/batch reference, and the names it
// and the socket passes print must be exactly the names BENCHMARK.json
// declares.
func TestTracedPassAndPrintedNames(t *testing.T) {
	dir := t.TempDir()
	ds := generate(21, churn, true)
	if err := ds.writeFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := ds.computeReference(); err != nil {
		t.Fatal(err)
	}
	warmInProcess(t, ds, dir)
	tr, err := tracedPass(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.problems {
		t.Errorf("traced pass: %s", p)
	}
	if tr.metrics["pipeline.reports_equal"] != 1 {
		t.Errorf("pipeline.reports_equal = %v, want 1", tr.metrics["pipeline.reports_equal"])
	}
	if tr.metrics["pipeline.tp_domains"] < 1 {
		t.Errorf("pipeline.tp_domains = %v, want at least 1", tr.metrics["pipeline.tp_domains"])
	}
	if len(tr.spans) == 0 {
		t.Errorf("the traced pass recorded no spans")
	}
	for id, self := range selfTimes(tr.spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has negative self time %d", id, tr.spans[id].Name, self)
		}
	}

	decl := loadDecl(t)
	obs := &observations{}
	e2e, _ := obs.endToEnd(0, false, map[string]int{})
	compareNames(t, "end_to_end", decl.EndToEnd, keys(e2e))
	perLayer := obs.perLayer(map[string]int{})
	for k, v := range tr.metrics {
		perLayer[k] = v
	}
	perLayer[socketGap] = 0
	compareNames(t, "per_layer", decl.PerLayer, keys(perLayer))
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func compareNames(t *testing.T, kind string, decls []metricDecl, printed []string) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
	}
	for _, n := range printed {
		if !declared[n] {
			t.Errorf("%s: %s is printed but not declared in BENCHMARK.json", kind, n)
		}
		delete(declared, n)
	}
	for n := range declared {
		t.Errorf("%s: %s is declared in BENCHMARK.json but never printed", kind, n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "latency", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    metricDecl
		a, b float64
		want string
	}{
		{lower, 100, 105, "within-bound"},
		{lower, 100, 111, "worse"},
		{lower, 100, 89, "better"},
		{higher, 100, 95, "within-bound"},
		{higher, 100, 89, "worse"},
		{higher, 100, 111, "better"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
