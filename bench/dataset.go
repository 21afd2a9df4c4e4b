package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/intel"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/whois"
)

// The day layout is eval.EnterpriseScale(ScaleSmall)'s: cmd/reprod derives
// its training split, WHOIS registry and intel oracle from exactly that
// config, so the benchmark cannot choose another.
const (
	trainingDays    = 6
	calibrationDays = 7 // cmd/reprod's calDays without -full
	warmDays        = trainingDays + calibrationDays
	totalDays       = 22
	measuredDays    = totalDays - warmDays
)

// truthSeed seeds the truth stream and, through `reprod -seed`, the daemon's
// simulated externals. It is fixed, and the benchmark's own seed varies the
// filler alone — nineteen records in twenty. The truth stream decides where
// campaigns fall, how the models fit and how much belief propagation each
// day-close does; across seeds 1-10 that moved the close-bound metrics by up
// to 4x (a seed whose model flags hundreds of filler domains a day), which
// is a different scenario, not a different sample of the same workload. With
// seed 21 the models fit on day 12 and four of the nine measured days report
// true-positive domains.
const truthSeed = 21

// shape is one filler traffic mix. Filler is benign volume around the
// truth stream; its cardinalities are what make the two shapes stress
// different layers, and the harness measures them back
// (stream.mean_run_len, profile.rare_domains).
type shape struct {
	name string
	// hosts and pool size the browsing population; sessions is browsing
	// sessions per host-day on a measured day (about 7.5 records each).
	hosts, pool int
	sessions    float64
	// rare and auto are fresh rare and fresh automated domains per
	// measured day.
	rare, auto int
}

var (
	// browse: few hosts on a small Zipf pool, so a routed batch holds long
	// per-domain runs, the day's state is tiny and day-close is near empty.
	browse = shape{name: "browse", hosts: 12, pool: 60, sessions: 660, rare: 50, auto: 5}
	// churn: many hosts, a large pool and thousands of fresh domains a
	// day, so runs are single records, state grows and day-close works.
	churn = shape{name: "churn", hosts: 400, pool: 4000, sessions: 5, rare: 6000, auto: 600}
)

// warmDivisor shrinks the filler on warm-up days (training + calibration):
// they only have to leave a fitted model and a populated history behind.
const warmDivisor = 8

// smokeDivisor shrinks every filler day for -smoke.
const smokeDivisor = 20

// fillerConfig is the shape's generator config at 1/div of its volume. The
// seed, host count and pool size are the same at every volume, so the warm
// and the measured filler share one host population and one popular pool.
func (s shape) fillerConfig(seed int64, div int) gen.EnterpriseConfig {
	atLeast1 := func(n int) int { return max(n/div, 1) }
	return gen.EnterpriseConfig{
		Seed:         seed + 1000,
		TrainingDays: trainingDays, OperationDays: totalDays - trainingDays,
		Hosts: s.hosts, PopularDomains: s.pool,
		SessionsPerDay:   s.sessions / float64(div),
		NewRarePerDay:    atLeast1(s.rare),
		BenignAutoPerDay: atLeast1(s.auto),
		// Zero means "default 24": the filler must carry no campaigns, or
		// its ground truth would differ from the one the daemon builds.
		Campaigns: -1,
	}
}

// dayData is one day's input, encoded once during set-up.
type dayData struct {
	day    time.Time
	date   string
	leases map[string]string // truth DHCP map, as POST /day and the lease file carry it
	tsv    []byte            // newline-framed TSV records in stream order
	off    []int             // off[i] is where record i starts; off[len] == len(tsv)
}

func (d *dayData) records() int { return len(d.off) - 1 }

// slice returns records [i, j) as wire bytes.
func (d *dayData) slice(i, j int) []byte { return d.tsv[d.off[i]:d.off[min(j, d.records())]] }

// dataset is everything one run feeds the daemon and checks it against.
type dataset struct {
	seed  int64
	shape shape
	truth *gen.Enterprise
	days  []dayData // all 22 days
	// dir holds the datagen-layout files of all days; warmDir links the
	// first warmDays of them.
	dir, warmDir string
	// warmCkpt is the checkpoint a real reprod wrote after replaying
	// warmDir: the state every -checkpoint start of a pass restores.
	warmCkpt string
	// ref is the internal/batch report of each measured day, by date.
	ref map[string]refReport
}

type refReport struct {
	json   []byte
	sha    [sha256.Size]byte
	tp, fp int
	fn     int
}

// mergeDay builds one day's stream: the truth generator's day verbatim plus
// the filler's, merged stably by UTC timestamp. Filler records carry an
// explicit host name, so they need no lease and cannot collide with a
// truth host.
func mergeDay(truth, filler *gen.Enterprise, i int) []logs.ProxyRecord {
	recs := truth.Day(i)
	names := filler.DHCPMap(i)
	for _, r := range filler.Day(i) {
		r.Host = "f-" + names[r.SrcIP]
		recs = append(recs, r)
	}
	utc := func(r *logs.ProxyRecord) time.Time { return r.Time.Add(-time.Duration(r.TZOffset) * time.Hour) }
	sort.SliceStable(recs, func(a, b int) bool { return utc(&recs[a]).Before(utc(&recs[b])) })
	return recs
}

func encodeDay(truth *gen.Enterprise, i int, recs []logs.ProxyRecord) dayData {
	d := dayData{
		day:    truth.DayTime(i),
		date:   truth.DayTime(i).Format("2006-01-02"),
		leases: make(map[string]string),
		tsv:    make([]byte, 0, len(recs)*170),
		off:    make([]int, 0, len(recs)+1),
	}
	for ip, host := range truth.DHCPMap(i) {
		d.leases[ip.String()] = host
	}
	for _, r := range recs {
		d.off = append(d.off, len(d.tsv))
		d.tsv = logs.AppendProxy(d.tsv, r)
	}
	d.off = append(d.off, len(d.tsv))
	return d
}

// generate builds the 22 encoded days of one (seed, shape), days in
// parallel: gen.Enterprise.Day is a pure function of (seed, day).
func generate(seed int64, sh shape, smoke bool) *dataset {
	div := 1
	if smoke {
		div = smokeDivisor
	}
	truth := gen.NewEnterprise(eval.EnterpriseScale(eval.ScaleSmall, truthSeed))
	warm := gen.NewEnterprise(sh.fillerConfig(seed, div*warmDivisor))
	meas := gen.NewEnterprise(sh.fillerConfig(seed, div))
	ds := &dataset{seed: seed, shape: sh, truth: truth, days: make([]dayData, totalDays)}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				filler := meas
				if i < warmDays {
					filler = warm
				}
				ds.days[i] = encodeDay(truth, i, mergeDay(truth, filler, i))
			}
		}()
	}
	// Largest days first, so the two workers finish together.
	for i := totalDays - 1; i >= 0; i-- {
		next <- i
	}
	close(next)
	wg.Wait()
	return ds
}

// writeFiles lays the dataset out as cmd/datagen would, under dir/data,
// with the warm-up days hard-linked into dir/warm.
func (ds *dataset) writeFiles(dir string) error {
	ds.dir, ds.warmDir = filepath.Join(dir, "data"), filepath.Join(dir, "warm")
	for _, d := range []string{ds.dir, ds.warmDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	for i := range ds.days {
		d := &ds.days[i]
		leases, err := json.Marshal(d.leases)
		if err != nil {
			return err
		}
		for name, data := range map[string][]byte{"proxy-" + d.date + ".tsv": d.tsv, "leases-" + d.date + ".json": leases} {
			if err := os.WriteFile(filepath.Join(ds.dir, name), data, 0o644); err != nil {
				return err
			}
			if i < warmDays {
				if err := os.Link(filepath.Join(ds.dir, name), filepath.Join(ds.warmDir, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newPipeline wires the enterprise pipeline exactly as cmd/reprod's
// newEngine does for `-seed truthSeed` without -full; the reference reports and the
// traced pass are only comparable with the daemon's because of it.
func newPipeline(truth *gen.Enterprise) (*pipeline.Enterprise, *whois.Registry, *intel.Oracle) {
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, truth.Truth, truth.RareRegistrations(), truth.DayTime(truth.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, truth.Truth, gen.OracleConfig{Seed: truthSeed})
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: calibrationDays},
		reg, oracle.Reported, oracle.IOCs)
	return pipe, reg, oracle
}

// reportBytes is a day report as GET /report/DATE serves it.
func reportBytes(d report.Daily) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// computeReference runs internal/batch over the written files and keeps
// each measured day's report with its score against the ground truth.
func (ds *dataset) computeReference() error {
	pipe, _, _ := newPipeline(ds.truth)
	reps, err := batch.RunEnterpriseDir(ds.dir, pipe, trainingDays)
	if err != nil {
		return fmt.Errorf("reference reports: %w", err)
	}
	ds.ref = make(map[string]refReport, measuredDays)
	for _, rep := range reps {
		if rep.Calibrating {
			continue
		}
		daily := report.Build(rep)
		js, err := reportBytes(daily)
		if err != nil {
			return err
		}
		r := refReport{json: js, sha: sha256.Sum256(js)}
		r.tp, r.fp, r.fn = scoreDay(ds.truth.Truth, rep.Day, daily)
		ds.ref[daily.Date] = r
	}
	if len(ds.ref) != measuredDays {
		return fmt.Errorf("reference reports: %d detection days, want %d (models not fitted by day %d?)", len(ds.ref), measuredDays, warmDays)
	}
	return nil
}

// scoreDay counts a report's domains against the ground truth: reported
// campaign domains, reported benign domains, and domains of that day's
// campaigns the report misses.
func scoreDay(truth *gen.GroundTruth, day time.Time, d report.Daily) (tp, fp, fn int) {
	reported := make(map[string]bool, len(d.Domains))
	for _, e := range d.Domains {
		reported[e.Domain] = true
		if truth.IsMalicious(e.Domain) {
			tp++
		} else {
			fp++
		}
	}
	for _, c := range truth.CampaignsOn(day) {
		for _, dom := range c.Domains() {
			if !reported[logs.FoldSecondLevel(dom)] {
				fn++
			}
		}
	}
	return tp, fp, fn
}
