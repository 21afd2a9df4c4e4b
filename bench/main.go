// Command bench is the repository's one benchmark. It builds cmd/reprod,
// generates seeded inputs, drives four workloads against a real reprod
// subprocess with tracing off, runs a traced pass in-process, checks every
// output against the internal/batch reference and prints every metric by
// name with its unit. BENCHMARK.json at the repository root declares the
// metrics, their bounds and the workloads; README.md explains them.
//
//	go run -C bench repro/bench -workload W -seed N -seconds S -trace 0|1
//	go run -C bench repro/bench [-seed N] [-out DIR] [-smoke]
//	go run -C bench repro/bench compare A.json B.json
//
// With -workload it runs that workload once and ends its standard output
// with one JSON line: the end-to-end metrics for -trace 0, the per-layer
// metrics for -trace 1. Without it, it runs all four workloads both ways
// and writes DIR/result.json and DIR/trace.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runLimit bounds one workload run, set-up included; the driver allows 180
// seconds.
const runLimit = 170 * time.Second

func benchMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and end with one JSON line; empty runs all")
	seed := fs.Int64("seed", 21, "seed of the generated filler traffic (the truth stream and the daemon's externals are fixed, see README)")
	seconds := fs.Float64("seconds", 0, "how long each workload measures (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "directory for result.json, trace.json and the reprod logs (default: a scratch directory, removed on exit)")
	smoke := fs.Bool("smoke", false, "shrink every day about 20x: checks plumbing and correctness, numbers are not comparable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(decl.RunSeconds)
	}
	var only *workload
	if *name != "" {
		if only = workloadByName(*name); only == nil {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Everything the run writes lives under the checkout's .bench_build.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	h := &harness{bin: filepath.Join(work, "reprod"), work: work, logDir: work, smoke: *smoke}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		if h.logDir, err = filepath.Abs(*out); err != nil {
			return err
		}
	}
	if err := buildDaemon(ctx, filepath.Join(root, "bench"), h.bin); err != nil {
		return err
	}

	if only != nil {
		return runForDriver(ctx, h, decl, only, *seed, *seconds, *trace == 1)
	}
	return runAll(ctx, h, decl, root, *seed, *seconds, *out)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot walks up from the working directory to the checkout root, which
// is where BENCHMARK.json lives.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// runResult is one workload's outcome.
type runResult struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Passes    int                `json:"passes"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Samples is how many timings each metric rests on. Timings is every
	// timing behind an end-to-end metric as measured, in milliseconds,
	// [pass][slot], and SetupS every set-up in seconds; Slowdown and
	// SetupSlowdown are what the end-to-end metrics divided them by, pass by
	// pass and set-up by set-up (see calib.go).
	Samples       map[string]int         `json:"samples,omitempty"`
	Timings       map[string][][]float64 `json:"timings,omitempty"`
	Slowdown      []float64              `json:"slowdown,omitempty"`
	SetupS        []float64              `json:"setup_s,omitempty"`
	SetupSlowdown []float64              `json:"setup_slowdown,omitempty"`

	spans []span
}

const socketGap = "reprod.socket_gap"

// setupRepeats is how many times a run that reports setup_s sets up; it
// reports the median, each set-up at the reference speed, and measures with
// the last.
const setupRepeats = 3

// runWorkload sets up, drives passes for about `seconds`, and — when
// traced — runs the in-process traced pass on the same inputs.
func runWorkload(ctx context.Context, h *harness, w *workload, seed int64, seconds float64, endToEnd, traced bool) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	var ds *dataset
	var setups, setupSlow, setupsAtRef []float64
	cal := newCalibrator()
	repeats := 1
	if endToEnd && !h.smoke {
		repeats = setupRepeats
	}
	for i := 0; i < repeats; i++ {
		if ds != nil {
			os.RemoveAll(filepath.Dir(ds.dir))
		}
		dir, err := os.MkdirTemp(h.work, w.shape.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if ds, err = setUp(ctx, h, seed, w.shape, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupSlow = append(setupSlow, cal.slowdown())
		setupsAtRef = append(setupsAtRef, setups[i]/setupSlow[i])
	}
	defer os.RemoveAll(filepath.Dir(ds.dir))

	obs := &observations{}
	passes := w.passes(seconds)
	if h.smoke {
		passes = 1
	}
	for obs.passes < passes {
		t0 := time.Now()
		if err := runPass(ctx, h, w, ds, obs); err != nil {
			return nil, err
		}
		obs.slow = append(obs.slow, cal.slowdown())
		fmt.Fprintf(os.Stderr, "bench: %s pass %d of %d took %.1fs at slowdown %.2f\n",
			w.name, obs.passes, passes, time.Since(t0).Seconds(), obs.slow[obs.passes-1])
	}

	res := &runResult{
		Workload: w.name, Attempted: obs.sent, Failed: obs.failed, Passes: obs.passes,
		Problems: obs.problems, Samples: map[string]int{},
	}
	tp := 0
	for _, r := range ds.ref {
		tp += r.tp
	}
	if tp == 0 {
		res.Problems = append(res.Problems, "no measured day reports a true-positive domain: the inputs do not match the daemon's externals")
	}
	if endToEnd {
		res.EndToEnd, res.Timings = obs.endToEnd(median(setupsAtRef), w.paced, res.Samples)
		res.Slowdown, res.SetupS, res.SetupSlowdown = obs.slow, setups, setupSlow
	}
	if traced {
		res.PerLayer = obs.perLayer(res.Samples)
		tr, err := tracedPass(ctx, ds)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		res.Problems = append(res.Problems, tr.problems...)
		for k, v := range tr.metrics {
			res.PerLayer[k] = v
		}
		// How much faster the engine ingests in-process than through the
		// daemon's socket.
		if in, out := res.PerLayer["stream.ingest_ns_per_rec"], ingestRecS(&obs.ingestMS, obs.ingestRecords); in > 0 && out > 0 {
			res.PerLayer[socketGap] = 1e9 / in / out
		}
		res.spans = tr.spans
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// setUp is what setup_s times: generate and encode the inputs, write them
// out, compute the reference reports, and replay the warm-up days through a
// real reprod for the warm checkpoint.
func setUp(ctx context.Context, h *harness, seed int64, sh shape, dir string) (*dataset, error) {
	ds := generate(seed, sh, h.smoke)
	if err := ds.writeFiles(dir); err != nil {
		return nil, err
	}
	// The reference runs in this process while the warm-up replay runs in
	// the child.
	warm := make(chan error, 1)
	go func() { warm <- ds.warmUp(ctx, h, dir) }()
	err := ds.computeReference()
	if werr := <-warm; err == nil {
		err = werr
	}
	return ds, err
}

// ingestRecS is the records of the ingest slots over the time those slots
// typically take.
func ingestRecS(ingestMS *series, ingestRecords []int) float64 {
	records, took := 0, 0.0
	for k, v := range ingestMS.slotTimes() {
		records += ingestRecords[k]
		took += v
	}
	if took == 0 {
		return 0
	}
	return float64(records) / (took / 1000)
}

// endToEnd reduces the observations to the end-to-end metrics. Each rests
// on per-slot midmeans over the run's passes, every pass at the reference
// speed. A paced workload's ingest takes what the pacer makes it take,
// whatever the box does, so its rate is stated as measured. The timings it
// returns beside the metrics are as measured.
func (o *observations) endToEnd(setupS float64, paced bool, samples map[string]int) (map[string]float64, map[string][][]float64) {
	ingest, latency := o.ingestMS.dividedBy(o.slow), o.reportLat.dividedBy(o.slow)
	if paced {
		ingest = &o.ingestMS
	}
	m := map[string]float64{
		"setup_s":           setupS,
		"ingest_rec_s":      ingestRecS(ingest, o.ingestRecords),
		"report_latency_ms": latency.typical(),
	}
	samples["ingest_rec_s"], samples["report_latency_ms"] = o.ingestMS.n(), o.reportLat.n()
	return m, map[string][][]float64{"ingest_rec_s": o.ingestMS.passes, "report_latency_ms": o.reportLat.passes}
}

// perLayer reduces the observations to the per-layer metrics seen from
// outside the daemon.
func (o *observations) perLayer(samples map[string]int) map[string]float64 {
	m := map[string]float64{}
	med := func(name string, v []float64) {
		m[name] = median(v)
		samples[name] = len(v)
	}
	tail := func(name string, v []float64) {
		m[name], _ = tailPercentile(v)
		samples[name] = len(v)
	}
	m["driver.sent_records"] = float64(o.sent)
	med("driver.late_p50_ms", o.late)
	tail("driver.late_p99_ms", o.late)
	med("driver.ladder_ok_rec_s", o.ladderOK)
	m["driver.cpu_s"] = o.driverCPU.Seconds()
	med("driver.slowdown", o.slow)
	m["reprod.cpu_s"] = o.cpu.Seconds()
	m["reprod.cpu_us_per_rec"] = float64(o.cpu.Microseconds()) / float64(max(o.sent, 1))
	m["reprod.rss_peak_mb"] = o.rssMB
	med("reprod.http_ingest_p50_ms", o.httpIngest)
	tail("reprod.http_ingest_p99_ms", o.httpIngest)
	m["reprod.http_429"] = float64(o.http429)
	med("reprod.day_post_p50_ms", o.dayPost)
	med("reprod.stats_p50_ms", o.statsLat)
	m["inputs.records"] = float64(o.inRecords)
	m["inputs.shed_records"] = float64(o.inShed)
	m["inputs.rejected_records"] = float64(o.inRejected)
	m["inputs.malformed_frames"] = float64(o.inMalformed)
	m["inputs.read_mb"] = float64(o.inReadBytes) / (1 << 20)
	med("stream.rollover_pause_us", o.rolloverPauseUS)
	med("reprod.close_ms", o.closeMS)
	m["stream.hist_cache_hit_frac"] = float64(o.histHits) / float64(max(o.histHits+o.histMisses, 1))
	med("stream.live_domains", o.liveDomains)
	med("stream.checkpoint_mb", o.ckptMB)
	med("stream.checkpoint_stall_ms", o.ckptStall)
	for name, s := range map[string]*series{
		"reprod.checkpoint_ms": &o.checkpoint,
		"reprod.preview_ms":    &o.preview,
		"reprod.restore_ms":    &o.restoreMS,
	} {
		m[name] = s.typical()
		samples[name] = s.n()
	}
	return m
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the metrics by name with their units, in declaration order,
// and returns them keyed for the JSON line. A declared metric of a layer
// this workload does not exercise reads 0; nothing undeclared may be
// printed.
func emit(decls []metricDecl, values map[string]float64, w *workload) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v := values[d.Name]
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-16s %-32s %16.6g %s\n", w.name, d.Name, v, d.Unit)
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func runForDriver(ctx context.Context, h *harness, decl *declaration, w *workload, seed int64, seconds float64, traced bool) error {
	res, err := runWorkload(ctx, h, w, seed, seconds, !traced, traced)
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	decls, values := decl.EndToEnd, res.EndToEnd
	if traced {
		decls, values = decl.PerLayer, res.PerLayer
	}
	metrics, err := emit(decls, values, w)
	if err != nil {
		return err
	}
	line, err := json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// resultFile is result.json.
type resultFile struct {
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Smoke      bool                  `json:"smoke"`
	Comparable bool                  `json:"comparable"`
	Env        map[string]string     `json:"env"`
	Workloads  map[string]*runResult `json:"workloads"`
	// Claim is always null: this benchmark reports numbers, a change that
	// claims a gain argues it from two of these files.
	Claim any `json:"claim"`
}

func runAll(ctx context.Context, h *harness, decl *declaration, root string, seed int64, seconds float64, out string) error {
	file := resultFile{
		Seed: seed, Seconds: seconds, Smoke: h.smoke, Comparable: !h.smoke,
		Env: map[string]string{
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
			"commit":     commitOf(ctx, root),
		},
		Workloads: map[string]*runResult{},
	}
	spans := map[string][]span{} // by workload; span ids are per workload
	failed := false
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
		res, err := runWorkload(ctx, h, w, seed, seconds, true, true)
		if err != nil {
			return err
		}
		if _, err := emit(decl.EndToEnd, res.EndToEnd, w); err != nil {
			return err
		}
		if _, err := emit(decl.PerLayer, res.PerLayer, w); err != nil {
			return err
		}
		share := 0.0
		if res.Attempted > 0 {
			share = float64(res.Failed) / float64(res.Attempted)
		}
		fmt.Printf("%-16s %-32s %16.6g share (%d of %d records)\n", w.name, "failed", share, res.Failed, res.Attempted)
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "bench: check failed:", p)
			failed = true
		}
		file.Workloads[w.name] = res
		spans[w.name] = res.spans
	}
	if out != "" {
		if err := writeJSON(filepath.Join(out, "result.json"), file); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(out, "trace.json"), spans); err != nil {
			return err
		}
	}
	if h.smoke {
		fmt.Println("smoke run: numbers are not comparable")
	}
	fmt.Println(`"claim": null`)
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commitOf names the checkout's commit when it is a git repository.
func commitOf(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
