package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/ccdetect"
	"repro/internal/core"
	"repro/internal/inputs"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/stream"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions. Spans of one traced day share its Day.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Day    string `json:"day"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus what the children cover
}

// tracer keeps spans in memory; the caller writes them out at exit.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // ids of the spans now open, innermost last
}

// do records fn as a span under the innermost open span.
func (t *tracer) do(name, day string, fn func()) time.Duration {
	id, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Day: day, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Children may overlap one another and
// are clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

type traceResult struct {
	metrics  map[string]float64
	problems []string
	spans    []span
}

// tracedDays is how many measured days the traced pass covers, from the
// first measured day on (the engine takes days in order).
const tracedDays = 3

// closeStages are the spans the engine's day-close is made of; what Flush
// takes beyond their sum is stream.close_other_ms.
var closeStages = []string{"profile.merge", "ccdetect.find", "ccdetect.fill", "ccdetect.score", "core.propagate", "report.build", "profile.commit"}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// nopIngester accepts every batch and does nothing with it, so that
// Listener.HandleConn costs framing and decoding only.
type nopIngester struct{}

func (nopIngester) IngestBatch([]logs.ProxyRecord) error { return nil }
func (nopIngester) Lagging() bool                        { return false }

// memConn is the read side of a connection over a byte slice.
type memConn struct {
	net.Conn
	r *bytes.Reader
}

func (c memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c memConn) Close() error               { return nil }

// restoreEngine is cmd/reprod's newEngine for a checkpoint start.
func restoreEngine(ds *dataset, ckpt []byte, shards int) (*stream.Engine, error) {
	_, reg, oracle := newPipeline(ds.truth)
	return stream.Restore(bytes.NewReader(ckpt), stream.Config{Shards: shards, TrainingDays: trainingDays},
		stream.RestoreDeps{Whois: reg, Reported: oracle.Reported, IOCs: oracle.IOCs})
}

func ingestInBatches(eng *stream.Engine, recs []logs.ProxyRecord) error {
	for i := 0; i < len(recs); i += tcpBatchRecords {
		if err := eng.IngestBatch(recs[i:min(i+tcpBatchRecords, len(recs))]); err != nil {
			return err
		}
	}
	eng.Stats() // quiesce: the shard queues are drained when this returns
	return nil
}

// tracedPass runs the first tracedDays measured days in-process. For each
// day it first composes the day-close by hand from the layers' public
// functions, mutating nothing, then lets an engine restored from the warm
// checkpoint ingest and close the same day; the two reports must be
// byte-equal, which is what licenses reading the stage spans as the
// engine's own.
func tracedPass(ctx context.Context, ds *dataset) (*traceResult, error) {
	warm, err := os.ReadFile(ds.warmCkpt)
	if err != nil {
		return nil, err
	}
	eng, err := restoreEngine(ds, warm, 2)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	pipe := eng.Pipeline()
	cfg := pipe.Config()

	tr := &tracer{t0: time.Now()}
	res := &traceResult{metrics: map[string]float64{}}
	dur := map[string][]float64{} // per span name, milliseconds per traced day
	timed := func(name, day string, fn func()) {
		dur[name] = append(dur[name], ms(tr.do(name, day, fn)))
	}
	var records, visitsKept, runs, tsvBytes int
	var allocs = map[string]uint64{}
	var automated, ccDomains, detections, iterations, repBytes int
	var dayDomains, rareDomains []float64
	equal := 0

	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	var recs []logs.ProxyRecord
	// Warm the decoder's interning tables, as a long-running listener's are.
	if recs, err = logs.ReadProxyBatch(bytes.NewReader(ds.days[warmDays].tsv), dec, recs[:0]); err != nil {
		return nil, err
	}

	for _, d := range ds.days[warmDays : warmDays+tracedDays] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := d
		var fail error
		leases := make(map[netip.Addr]string, len(d.leases))
		for ip, host := range d.leases {
			leases[netip.MustParseAddr(ip)] = host
		}
		records += d.records()
		tsvBytes += len(d.tsv)

		var handBytes []byte
		tr.do("compose", d.date, func() {
			// inputs + logs: frame and decode.
			a0 := mallocs()
			timed("inputs.handle", d.date, func() {
				l := inputs.NewListener(nopIngester{}, inputs.Config{Name: "bench", Framing: inputs.FramingNewline, Format: inputs.FormatProxy})
				fail = l.HandleConn(memConn{r: bytes.NewReader(d.tsv)})
			})
			a1 := mallocs()
			timed("logs.decode", d.date, func() {
				recs, err = logs.ReadProxyBatch(bytes.NewReader(d.tsv), dec, recs[:0])
			})
			a2 := mallocs()
			allocs["inputs.handle"] += a1 - a0
			allocs["logs.decode"] += a2 - a1
			if fail == nil {
				fail = err
			}
			if fail != nil {
				return
			}
			enc := make([]byte, 0, len(d.tsv))
			timed("logs.encode", d.date, func() {
				for i := range recs {
					enc = logs.AppendProxy(enc, recs[i])
				}
			})
			if !bytes.Equal(enc, d.tsv) {
				res.problems = append(res.problems, fmt.Sprintf("traced %s: decode then encode does not reproduce the day's bytes", d.date))
			}
			timed("stream.replay_load", d.date, func() {
				name := func(prefix, ext string) string { return filepath.Join(ds.dir, prefix+d.date+ext) }
				var loaded []logs.ProxyRecord
				loaded, _, fail = batch.LoadProxyDayInto(batch.Day{Date: d.day, ProxyPath: name("proxy-", ".tsv"), LeasePath: name("leases-", ".json")},
					dec, logs.GetProxyBuf(len(recs)))
				logs.PutProxyBuf(loaded)
			})
			if fail != nil {
				return
			}

			// normalize.
			var visits []logs.Visit
			var stats normalize.ProxyStats
			timed("normalize.reduce", d.date, func() { visits, stats = normalize.ReduceProxy(recs, leases) })
			visitsKept += stats.Kept

			// profile: fold the visits as the shards do — routed in
			// batches to two partitions, each routed batch grouped into
			// per-domain runs — then merge the partitions.
			plan := planRuns(visits)
			runs += len(plan)
			parts := []*profile.IncrementalBuilder{profile.NewIncrementalBuilder(), profile.NewIncrementalBuilder()}
			timed("profile.build", d.date, func() {
				for _, r := range plan {
					cur := parts[r.part].Run(r.domain)
					for _, i := range r.idx {
						cur.Add(uint64(i)+1, &visits[i])
					}
				}
			})
			hist := pipe.History()
			var snap *profile.Snapshot
			timed("profile.merge", d.date, func() {
				snap = profile.MergeSnapshotParallel(d.day, parts, hist, cfg.UnpopularThreshold, cfg.Workers)
			})
			dayDomains = append(dayDomains, float64(snap.AllDomains))
			rareDomains = append(rareDomains, float64(snap.RareCount()))

			// ccdetect, core, report: the pure day-close stages, composed
			// as pipeline.ProcessSnapshot composes them.
			det := pipe.Detector()
			var ads, cc []*ccdetect.AutomatedDomain
			timed("ccdetect.find", d.date, func() { ads = det.FindAutomatedParallel(snap, cfg.Workers) })
			timed("ccdetect.fill", d.date, func() { det.FillFeaturesParallel(ads, snap.Day, cfg.Workers) })
			timed("ccdetect.score", d.date, func() {
				for _, ad := range ads {
					if det.Score(ad) >= det.Threshold {
						cc = append(cc, ad)
					}
				}
				sort.Slice(cc, func(i, j int) bool { return cc[i].Score > cc[j].Score })
			})
			automated += len(ads)
			ccDomains += len(cc)
			var noHint, socHints *core.Result
			timed("core.propagate", d.date, func() {
				bp := core.Config{ScoreThreshold: pipe.SimThreshold(), MaxIterations: cfg.MaxIterations, Workers: cfg.Workers}
				if len(cc) > 0 {
					seeds := make([]string, len(cc))
					for i, ad := range cc {
						seeds[i] = ad.Domain
					}
					noHint = core.BeliefPropagation(snap, nil, seeds, det, pipe.SimilarityScorer(), bp)
				}
				var seeds []string
				if pipe.IOCs != nil {
					for _, ioc := range pipe.IOCs() {
						if _, ok := snap.Rare[ioc]; ok {
							seeds = append(seeds, ioc)
						}
					}
				}
				sort.Strings(seeds)
				if len(seeds) > 0 {
					socHints = core.BeliefPropagation(snap, nil, seeds, det, pipe.SimilarityScorer(), bp)
				}
			})
			for _, r := range []*core.Result{noHint, socHints} {
				if r != nil {
					detections += len(r.Detections)
					iterations += r.Iterations
				}
			}
			var daily report.Daily
			timed("report.build", d.date, func() {
				daily = report.Build(pipeline.EnterpriseDayReport{
					Day: d.day, Stats: stats, NewCount: snap.NewDomains, RareCount: snap.RareCount(),
					Snapshot: snap, Automated: ads, CC: cc, NoHint: noHint, SOCHints: socHints,
				})
			})
			timed("report.encode", d.date, func() { handBytes, fail = reportBytes(daily) })
			repBytes += len(handBytes)
			if fail != nil {
				return
			}

			// The commit goes to a copy of the history: the pipeline's own
			// must stay as it is for the engine to close the same day.
			var saved bytes.Buffer
			if fail = hist.Save(&saved); fail != nil {
				return
			}
			var histCopy *profile.History
			if histCopy, fail = profile.LoadHistory(&saved); fail != nil {
				return
			}
			timed("profile.commit", d.date, func() { snap.Commit(histCopy) })
			res.metrics["profile.history_domains"] = float64(histCopy.DomainCount())
		})
		if fail != nil {
			return nil, fmt.Errorf("day %s: %w", d.date, fail)
		}

		// The engine's turn, from the state the composition read.
		var before bytes.Buffer
		if err := eng.Checkpoint(&before); err != nil {
			return nil, err
		}
		tr.do("engine", d.date, func() {
			// One shard first: the single-threaded baseline, on a throwaway
			// engine restored to the same state.
			var one *stream.Engine
			if one, fail = restoreEngine(ds, before.Bytes(), 1); fail != nil {
				return
			}
			if fail = one.BeginDay(d.day, leases); fail == nil {
				timed("stream.ingest1", d.date, func() { fail = ingestInBatches(one, recs) })
			}
			one.Close()
			if fail != nil {
				return
			}

			if fail = eng.BeginDay(d.day, leases); fail != nil {
				return
			}
			a0 := mallocs()
			timed("stream.ingest", d.date, func() { fail = ingestInBatches(eng, recs) })
			allocs["stream.ingest"] += mallocs() - a0
			if fail != nil {
				return
			}
			timed("stream.preview", d.date, func() { _, fail = eng.Preview(0) })
			if fail != nil {
				return
			}
			var ckpt bytes.Buffer
			timed("stream.checkpoint", d.date, func() { fail = eng.Checkpoint(&ckpt) })
			if fail != nil {
				return
			}
			var back *stream.Engine
			timed("stream.restore", d.date, func() {
				if back, fail = restoreEngine(ds, ckpt.Bytes(), 2); fail == nil {
					back.Stats()
				}
			})
			if fail != nil {
				return
			}
			back.Close()
			timed("stream.close", d.date, func() { fail = eng.Flush() })
		})
		if fail != nil {
			return nil, fmt.Errorf("day %s: %w", d.date, fail)
		}
		daily, ok := eng.Report(d.date)
		if !ok {
			return nil, fmt.Errorf("day %s: the engine published no report", d.date)
		}
		engBytes, err := reportBytes(daily)
		if err != nil {
			return nil, err
		}
		switch {
		case !bytes.Equal(engBytes, handBytes):
			res.problems = append(res.problems, fmt.Sprintf("traced %s: hand-composed report differs from the engine's", d.date))
		case !bytes.Equal(engBytes, ds.ref[d.date].json):
			res.problems = append(res.problems, fmt.Sprintf("traced %s: in-process report differs from the internal/batch reference", d.date))
		default:
			equal++
		}
	}

	m := res.metrics
	perRec := func(name, spanName string, n int) {
		total := 0.0
		for _, v := range dur[spanName] {
			total += v
		}
		m[name] = total * 1e6 / float64(n)
	}
	perDay := func(name, spanName string, scale float64) { m[name] = median(dur[spanName]) * scale }
	perRec("inputs.handle_ns_per_rec", "inputs.handle", records)
	m["inputs.handle_allocs_per_rec"] = float64(allocs["inputs.handle"]) / float64(records)
	perRec("logs.decode_ns_per_rec", "logs.decode", records)
	m["logs.decode_allocs_per_rec"] = float64(allocs["logs.decode"]) / float64(records)
	m["logs.decode_mb_s"] = float64(tsvBytes) / (1 << 20) / (m["logs.decode_ns_per_rec"] * float64(records) / 1e9)
	perRec("logs.encode_ns_per_rec", "logs.encode", records)
	m["logs.bytes_per_rec"] = float64(tsvBytes) / float64(records)
	perRec("normalize.reduce_ns_per_rec", "normalize.reduce", records)
	m["normalize.kept_frac"] = float64(visitsKept) / float64(records)
	perRec("stream.ingest_ns_per_rec", "stream.ingest", records)
	m["stream.ingest_allocs_per_rec"] = float64(allocs["stream.ingest"]) / float64(records)
	perRec("stream.ingest1_ns_per_rec", "stream.ingest1", records)
	m["stream.mean_run_len"] = float64(visitsKept) / float64(runs)
	perDay("stream.close_ms", "stream.close", 1)
	other := make([]float64, tracedDays)
	for i := range other {
		other[i] = dur["stream.close"][i]
		for _, stage := range closeStages {
			other[i] -= dur[stage][i]
		}
	}
	m["stream.close_other_ms"] = median(other)
	perDay("stream.checkpoint_ms", "stream.checkpoint", 1)
	perDay("stream.restore_ms", "stream.restore", 1)
	perDay("stream.preview_ms", "stream.preview", 1)
	perRec("stream.replay_load_ns_per_rec", "stream.replay_load", records)
	perRec("profile.build_ns_per_visit", "profile.build", visitsKept)
	perDay("profile.merge_ms", "profile.merge", 1)
	perDay("profile.commit_ms", "profile.commit", 1)
	m["profile.day_domains"] = median(dayDomains)
	m["profile.rare_domains"] = median(rareDomains)
	perDay("ccdetect.find_ms", "ccdetect.find", 1)
	perDay("ccdetect.fill_ms", "ccdetect.fill", 1)
	m["ccdetect.automated"] = float64(automated)
	perDay("ccdetect.score_us", "ccdetect.score", 1000)
	m["ccdetect.cc_domains"] = float64(ccDomains)
	perDay("core.propagate_ms", "core.propagate", 1)
	m["core.iterations"] = float64(iterations)
	m["core.detections"] = float64(detections)
	perDay("report.build_us", "report.build", 1000)
	perDay("report.encode_us", "report.encode", 1000)
	m["report.bytes"] = float64(repBytes)
	m["pipeline.reports_equal"] = float64(equal) / tracedDays
	for _, r := range ds.ref {
		m["pipeline.tp_domains"] += float64(r.tp)
		m["pipeline.fp_domains"] += float64(r.fp)
		m["pipeline.fn_domains"] += float64(r.fn)
	}
	for id, self := range selfTimes(tr.spans) {
		tr.spans[id].Self = self
	}
	res.spans = tr.spans
	return res, nil
}

// run is one per-domain run of a routed batch: the visits at idx, all of
// one domain and one partition, in arrival order.
type run struct {
	part   int
	domain string
	idx    []int
}

// planRuns routes the day's visits as the engine does — tcpBatchRecords at a
// time, each visit to one of two partitions by its (host, domain) pair —
// and groups every routed batch into per-domain runs in first-seen order,
// which is the shape the shards hand their builders. The engine's own
// routing hash is seeded per process; the merge result does not depend on
// the assignment, and the run lengths do not depend on which hash it is.
func planRuns(visits []logs.Visit) []run {
	type key struct {
		part   int
		domain string
	}
	var plan []run
	for from := 0; from < len(visits); from += tcpBatchRecords {
		to := min(from+tcpBatchRecords, len(visits))
		at := map[key]int{} // index into plan
		for i := from; i < to; i++ {
			v := &visits[i]
			part := profile.PairPartition(v.Host, v.Domain, 2)
			key := key{part, v.Domain}
			j, ok := at[key]
			if !ok {
				j = len(plan)
				at[key] = j
				plan = append(plan, run{part: part, domain: v.Domain})
			}
			plan[j].idx = append(plan[j].idx, i)
		}
	}
	return plan
}
