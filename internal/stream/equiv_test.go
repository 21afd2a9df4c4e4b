package stream

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/batch"
	"repro/internal/gen"
	"repro/internal/inputs"
	"repro/internal/intel"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/whois"
)

// The golden equivalence fixture: a small but complete cmd/datagen-layout
// enterprise dataset (training month, calibration window, operation days
// with campaigns), plus the simulated WHOIS/intel externals both runs
// share.
type equivFixture struct {
	dir      string
	gen      *gen.Enterprise
	whois    *whois.Registry
	oracle   *intel.Oracle
	pipeCfg  pipeline.EnterpriseConfig
	training int
}

func newEquivFixture(t *testing.T, seed int64) *equivFixture {
	t.Helper()
	g := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: seed, TrainingDays: 5, OperationDays: 10,
		Hosts: 50, PopularDomains: 70, NewRarePerDay: 18,
		BenignAutoPerDay: 4, Campaigns: 8,
	})
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, g.Truth, gen.OracleConfig{Seed: seed})

	dir := t.TempDir()
	for day := 0; day < g.NumDays(); day++ {
		date := g.DayTime(day).Format("2006-01-02")
		writeProxyTSV(t, filepath.Join(dir, "proxy-"+date+".tsv"), g.Day(day))
		leases := make(map[string]string)
		for ip, host := range g.DHCPMap(day) {
			leases[ip.String()] = host
		}
		data, err := json.Marshal(leases)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return &equivFixture{
		dir: dir, gen: g, whois: reg, oracle: oracle,
		pipeCfg:  pipeline.EnterpriseConfig{CalibrationDays: 4},
		training: g.Config().TrainingDays,
	}
}

func writeProxyTSV(t testing.TB, name string, recs []logs.ProxyRecord) {
	t.Helper()
	f, err := os.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := logs.NewProxyWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (fx *equivFixture) newPipeline() *pipeline.Enterprise {
	return pipeline.NewEnterprise(fx.pipeCfg, fx.whois, fx.oracle.Reported, fx.oracle.IOCs)
}

// batchDailies runs the reference batch path and returns the serialized
// SOC report of every processed (non-training) day, keyed by date.
func (fx *equivFixture) batchDailies(t *testing.T) (map[string][]byte, []pipeline.EnterpriseDayReport) {
	t.Helper()
	reports, err := batch.RunEnterpriseDir(fx.dir, fx.newPipeline(), fx.training)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(reports))
	for _, rep := range reports {
		out[rep.Day.Format("2006-01-02")] = dailyBytes(t, report.Build(rep))
	}
	return out, reports
}

func dailyBytes(t *testing.T, d report.Daily) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingMatchesBatch is the tier-1 correctness anchor of the
// streaming subsystem: replaying a generated multi-day dataset through the
// sharded engine — with a checkpoint/restore cycle split in the middle of
// an operation day — yields SOC reports byte-for-byte identical to the
// batch pipeline over the same files.
func TestStreamingMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 77)
	want, batchReports := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}

	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != fx.gen.NumDays() {
		t.Fatalf("discovered %d days, want %d", len(days), fx.gen.NumDays())
	}

	cfg := Config{Shards: 4, QueueDepth: 256, TrainingDays: fx.training}
	e := New(cfg, fx.newPipeline())
	// Rotate days through four ingestion shapes: per-record, multi-record
	// batches in odd-size chunks (so batch boundaries never align with
	// anything), the HTTP-TSV shape — records re-encoded to TSV and decoded
	// back through the pooled zero-copy batch reader, which is exactly what
	// cmd/reprod's /ingest endpoint runs — and the live TCP shape: records
	// written octet-counted over a pipe into an internal/inputs listener
	// handler, the daemon's -listen-syslog framing path. The golden
	// invariant must hold for all four.
	ingest := func(e *Engine, recs []logs.ProxyRecord, shape int) {
		t.Helper()
		switch shape {
		case 0:
			for _, r := range recs {
				if err := ingest1(e, r); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			for len(recs) > 0 {
				n := min(97, len(recs))
				if err := e.IngestBatch(recs[:n]); err != nil {
					t.Fatal(err)
				}
				recs = recs[n:]
			}
		case 2:
			var tsv []byte
			for _, r := range recs {
				tsv = logs.AppendProxy(tsv, r)
			}
			dec := logs.GetProxyDecoder()
			defer logs.PutProxyDecoder(dec)
			decoded, err := logs.ReadProxyBatch(bytes.NewReader(tsv), dec, logs.GetProxyBuf(len(recs)))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.IngestBatch(decoded); err != nil {
				t.Fatal(err)
			}
			logs.PutProxyBuf(decoded)
		default:
			// One octet-counted frame per record, like a syslog relay
			// (without the RFC 5424 header — framing is what's under test).
			// net.Pipe is synchronous, so HandleConn has ingested everything
			// once the client write-side is closed and HandleConn returns.
			// The engine is wrapped to never report Lagging: the golden
			// comparison needs loss-free delivery through the engine's own
			// blocking backpressure, while the listener's shed-under-lag
			// policy is pinned separately in the inputs package tests.
			l := inputs.NewListener(noShed{e}, inputs.Config{Framing: inputs.FramingOctet, Format: inputs.FormatProxy})
			client, server := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- l.HandleConn(server) }()
			var frame []byte
			for _, r := range recs {
				line := logs.AppendProxy(nil, r)
				line = line[:len(line)-1] // framing replaces the trailing \n
				frame = frame[:0]
				frame = strconv.AppendInt(frame, int64(len(line)), 10)
				frame = append(frame, ' ')
				frame = append(frame, line...)
				if _, err := client.Write(frame); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := l.Stats()
			if int(st.Records) != len(recs) || st.SheddedRecords != 0 || st.RejectedRecords != 0 {
				t.Fatalf("TCP shape delivered %d/%d records (shed %d, rejected %d)",
					st.Records, len(recs), st.SheddedRecords, st.RejectedRecords)
			}
		}
	}
	ckptDay := len(days) - 3 // a post-calibration operation day
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		half := len(recs)
		if i == ckptDay {
			half = len(recs) / 2
		}
		ingest(e, recs[:half], i%4)
		if i == ckptDay {
			// Mid-day restart: checkpoint, abandon the engine, restore
			// into a fresh one with a different shard count, resume.
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			abandoned := e
			e, err = Restore(&buf, Config{Shards: 2, QueueDepth: 64}, RestoreDeps{
				Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs,
			})
			if err != nil {
				t.Fatal(err)
			}
			abandonEngine(abandoned)
			// Resume with a different ingestion shape than the first half
			// used, crossing the restore boundary with batches in play.
			ingest(e, recs[half:], (i+1)%4)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("stream has no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: stream report differs from batch\nbatch:  %s\nstream: %s",
				date, wantJSON, gotJSON)
		}
		checked++
	}
	if checked != len(want) {
		t.Fatalf("compared %d days, want %d", checked, len(want))
	}

	// The days completed after the restore also expose full pipeline
	// reports; their normalization statistics must match batch exactly.
	for _, brep := range batchReports {
		date := brep.Day.Format("2006-01-02")
		srep, ok := e.DayReport(date)
		if !ok {
			continue
		}
		if srep.Stats != brep.Stats {
			t.Errorf("day %s: stats differ: stream %+v, batch %+v", date, srep.Stats, brep.Stats)
		}
		if srep.NewCount != brep.NewCount || srep.RareCount != brep.RareCount {
			t.Errorf("day %s: counts differ: stream new=%d rare=%d, batch new=%d rare=%d",
				date, srep.NewCount, srep.RareCount, brep.NewCount, brep.RareCount)
		}
	}
	e.Close()
}

// TestRandomBatchPartitionReports is the streaming half of the apply-path
// determinism property: how a day's records are partitioned into batches
// decides how applyBatch cuts them into domain runs, yet
// every partition must publish SOC reports byte-identical to the batch
// reference. Three random partitions per dataset, mixed batch sizes from
// single records to whole-day slabs.
func TestRandomBatchPartitionReports(t *testing.T) {
	fx := newEquivFixture(t, 78)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := New(Config{Shards: 1 + trial, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())
		for _, d := range days {
			recs, leases, err := batch.LoadProxyDay(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.BeginDay(d.Date, leases); err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(recs); {
				var n int
				if rng.Intn(4) == 0 {
					n = 1 + rng.Intn(8) // tiny batches
				} else {
					n = 1 + rng.Intn(2*len(recs)/3+1)
				}
				end := min(start+n, len(recs))
				if err := e.IngestBatch(recs[start:end]); err != nil {
					t.Fatal(err)
				}
				start = end
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		for date, wantJSON := range want {
			got, ok := e.Report(date)
			if !ok {
				t.Fatalf("trial %d: no report for %s", trial, date)
			}
			if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("trial %d day %s: partitioned-ingest report differs from batch", trial, date)
			}
		}
		e.Close()
	}
}

// abandonEngine stops an engine's shard workers without flushing the open
// day through the pipeline — for tests that replace an engine with its
// restored successor mid-dataset and would otherwise leak the
// predecessor's goroutines. The engine must be quiescent (no concurrent
// producers; a just-taken checkpoint guarantees drained queues).
func abandonEngine(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.batches)
	}
}

// ingestDataset replays every day of the fixture dataset into e with the
// given ingestion shape (97-record batches or per-record), optionally
// cutting one post-calibration day in half with a checkpoint/restore cycle
// into restoreCfg (nil: no restart). Returns the engine that finished the
// dataset (the restored one when a restart happened).
func (fx *equivFixture) ingestDataset(t *testing.T, e *Engine, days []batch.Day, batched bool, restoreCfg *Config) *Engine {
	t.Helper()
	ingest := func(e *Engine, recs []logs.ProxyRecord) {
		t.Helper()
		if batched {
			for len(recs) > 0 {
				n := min(97, len(recs))
				if err := e.IngestBatch(recs[:n]); err != nil {
					t.Fatal(err)
				}
				recs = recs[n:]
			}
			return
		}
		for _, r := range recs {
			if err := ingest1(e, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckptDay := -1
	if restoreCfg != nil {
		ckptDay = len(days) - 3 // a post-calibration operation day
	}
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		half := len(recs)
		if i == ckptDay {
			half = len(recs) / 2
		}
		ingest(e, recs[:half])
		if i == ckptDay {
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			abandoned := e
			e, err = Restore(&buf, *restoreCfg, RestoreDeps{
				Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs,
			})
			if err != nil {
				t.Fatal(err)
			}
			abandonEngine(abandoned)
			ingest(e, recs[half:])
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIncrementalSnapshotMatchesBatch locks the incremental day-close down
// against the batch reference: the per-shard partial snapshots merged at
// rollover must yield SOC reports byte-identical to the batch NewSnapshot
// path for every shard count, pipeline worker count and ingestion shape —
// including a mid-day checkpoint/restore that changes the shard count, so
// the open day's partials are deterministically rebuilt under a different
// partitioning.
func TestIncrementalSnapshotMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 83)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name            string
		shards, workers int
		batched         bool
		restoreShards   int // 0: no mid-day restart
	}{
		{"1shard-seqworkers-perrecord", 1, 1, false, 0},
		{"3shard-seqworkers-batched", 3, 1, true, 0},
		{"8shard-parworkers-batched", 8, 0, true, 0},
		{"3to8shard-restore-perrecord", 3, 0, false, 8},
		{"8to1shard-restore-batched", 8, 1, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pipeCfg := fx.pipeCfg
			pipeCfg.Workers = tc.workers
			pipe := pipeline.NewEnterprise(pipeCfg, fx.whois, fx.oracle.Reported, fx.oracle.IOCs)
			e := New(Config{Shards: tc.shards, QueueDepth: 256, TrainingDays: fx.training}, pipe)
			var restoreCfg *Config
			if tc.restoreShards > 0 {
				restoreCfg = &Config{Shards: tc.restoreShards, QueueDepth: 64}
			}
			e = fx.ingestDataset(t, e, days, tc.batched, restoreCfg)
			defer e.Close()
			for date, wantJSON := range want {
				got, ok := e.Report(date)
				if !ok {
					t.Errorf("no report for %s", date)
					continue
				}
				if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("day %s: incremental report differs from batch\nbatch:       %s\nincremental: %s",
						date, wantJSON, gotJSON)
				}
			}
		})
	}
}

// TestReplayDirMatchesBatch exercises the packaged replay path (the one
// cmd/reprod -replay uses) against the same golden dataset.
func TestReplayDirMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 78)
	want, _ := fx.batchDailies(t)

	e := New(Config{Shards: 3, TrainingDays: fx.training}, fx.newPipeline())
	replayed := 0
	err := ReplayDir(e, fx.dir, ReplayOptions{OnDay: func(d batch.Day, records int) {
		if want := len(fx.gen.Day(replayed)); records != want || !d.Date.Equal(fx.gen.DayTime(replayed)) {
			t.Errorf("day %d: replayed %s with %d records, want %s with %d", replayed,
				d.Date.Format("2006-01-02"), records, fx.gen.DayTime(replayed).Format("2006-01-02"), want)
		}
		replayed++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != fx.gen.NumDays() {
		t.Fatalf("replayed %d days, want %d", replayed, fx.gen.NumDays())
	}
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Fatalf("stream has no report for %s", date)
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: replayed report differs from batch", date)
		}
	}
	e.Close()
}

// noShed adapts an Engine into an inputs.Ingester that never reports lag,
// so the equivalence test's TCP shape exercises framing and decode while
// the engine's blocking backpressure guarantees loss-free delivery.
type noShed struct{ *Engine }

func (noShed) Lagging() bool { return false }
