package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/logs"
)

// decodeCheckpointHeader reads the first line of a checkpoint for the
// format-level assertions the equivalence tests make.
func decodeCheckpointHeader(t *testing.T, data []byte) checkpointHeader {
	t.Helper()
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		t.Fatal("checkpoint has no header line")
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		t.Fatalf("checkpoint header: %v", err)
	}
	return hdr
}

func ingestChunks(t *testing.T, e *Engine, recs []logs.ProxyRecord) {
	t.Helper()
	for len(recs) > 0 {
		n := min(97, len(recs))
		if err := e.IngestBatch(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
}

// TestCheckpointDuringCloseMatchesBatch: a checkpoint requested while a
// day-close is stalled mid-flight must wait the close out and return only
// after it, describing the settled close — the closed day among the
// dailies, no closing-day section — and restore, onto a different shard
// count, into an engine that finishes the dataset byte-identical to batch.
func TestCheckpointDuringCloseMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 87)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}

	ckptDay := len(days) - 3 // a post-calibration operation day; its close is stalled
	stallDate := days[ckptDay].Date.Format("2006-01-02")
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	e := New(Config{
		Shards: 3, QueueDepth: 256, TrainingDays: fx.training,
		CloseHook: func(date string) {
			if date == stallDate {
				entered <- struct{}{}
				<-release
			}
		},
	}, fx.newPipeline())

	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if i != ckptDay+1 {
			ingestChunks(t, e, recs)
			continue
		}
		// The rollover above kicked off the stalled close of ckptDay; stream
		// half the next day in and request a checkpoint with the close still
		// in flight. It must not return until the close is released.
		<-entered
		half := len(recs) / 2
		ingestChunks(t, e, recs[:half])
		var buf bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- e.Checkpoint(&buf) }()
		select {
		case err := <-done:
			close(release)
			t.Fatalf("Checkpoint returned (%v) during the stalled close", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		hdr := decodeCheckpointHeader(t, buf.Bytes())
		if hdr.Version != checkpointVersion || hdr.Closing != "" || hdr.DaysDone != ckptDay+1 {
			t.Fatalf("header version %d closing %q daysDone %d, want v%d, no closing day, %d days done",
				hdr.Version, hdr.Closing, hdr.DaysDone, checkpointVersion, ckptDay+1)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`{"date":"`+stallDate+`"`)) {
			t.Fatalf("checkpoint lacks the daily of the day whose close it waited out (%s)", stallDate)
		}
		restored, err := Restore(&buf, Config{Shards: 8, QueueDepth: 64}, RestoreDeps{
			Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs,
		})
		if err != nil {
			t.Fatal(err)
		}
		abandonEngine(e)
		e = restored
		ingestChunks(t, e, recs[half:])
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: report differs from batch\nbatch:  %s\nstream: %s", date, wantJSON, gotJSON)
		}
		checked++
	}
	if checked != len(want) {
		t.Fatalf("compared %d days, want %d", checked, len(want))
	}
	e.Close()
}

// TestParentFormatCheckpointRestores: a v2 checkpoint as earlier builds
// wrote it — its header still carrying the v1-era "items" count, the
// "rejected" counter and the "lateRecords" counter of the retired
// timestamp-driven rollover, all gone from the header struct, and its open-day
// section ending in the livePairs records builds up to PR 15 appended (a
// count in the section header, then that many per-pair analyzer states, here
// two lines the PR 15 build wrote) — must restore mid-day, onto another shard
// count, into an engine whose remaining dataset run stays byte-identical to
// batch.
func TestParentFormatCheckpointRestores(t *testing.T) {
	fx := newEquivFixture(t, 79)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	deps := RestoreDeps{Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs}
	e := New(Config{Shards: 3, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())
	ckptDay := len(days) - 3
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if i != ckptDay {
			ingestChunks(t, e, recs)
			continue
		}
		half := len(recs) / 2
		ingestChunks(t, e, recs[:half])
		var ckpt bytes.Buffer
		if err := e.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(ckpt.Bytes(), []byte(`{"version":2,`)) {
			t.Fatalf("header starts %q, want a version-2 JSON object", ckpt.Bytes()[:20])
		}
		if bytes.Contains(ckpt.Bytes(), []byte("lateRecords")) {
			t.Fatal("the header still writes lateRecords")
		}
		// Splice the three retired fields into the header object, and the
		// retired section into the open day, which ends the file.
		parent := append([]byte(`{"items":0,"rejected":7,"lateRecords":2,`), ckpt.Bytes()[1:]...)
		meta := bytes.Index(parent, []byte(`{"markerDomains":`))
		if meta < 0 || bytes.Contains(parent, []byte("livePairs")) {
			t.Fatalf("open-day header missing, or a livePairs section still written:\n%s", parent[max(meta, 0):][:80])
		}
		end := meta + bytes.IndexByte(parent[meta:], '}')
		parent = append(parent[:end:end], append([]byte(`,"livePairs":2`), parent[end:]...)...)
		parent = append(parent, parentLivePair+"\n"+
			`{"h":"h2","d":"a.test","s":{"last":"2014-02-03T02:00:00Z","bins":[{"Hub":3600,"Count":1}],"total":1,"conns":2,"ooo":1}}`+"\n"...)
		restored, err := Restore(bytes.NewReader(parent), Config{Shards: 5, QueueDepth: 64}, deps)
		if err != nil {
			t.Fatalf("restore parent-format v2: %v", err)
		}
		abandonEngine(e)
		e = restored
		assertShardsDomainDisjoint(t, "restored from the parent format", e)
		ingestChunks(t, e, recs[half:])
		assertShardsDomainDisjoint(t, "restored from the parent format, day finished", e)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: restored report differs from batch", date)
		}
	}
	e.Close()
}

// mapSetsCheckpoint is a mid-day checkpoint written by the build whose host
// UA sets and retained-path sets were maps (day 2014-02-03 closed, 2014-02-04
// open on three shards): hosts with several UAs and UA-less visits, a domain
// past the 16-path cap, known-domain markers, lease-less marker domains.
const mapSetsCheckpoint = "testdata/midday-map-sets.ckpt"

// TestMapSetsCheckpointRestores: the builder codec writes the same bytes for
// the slice-backed sets as it did for the maps, so that checkpoint restores
// onto any shard count and re-encodes byte for byte.
func TestMapSetsCheckpointRestores(t *testing.T) {
	want, err := os.ReadFile(mapSetsCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5} {
		e, err := Restore(bytes.NewReader(want), Config{Shards: shards, QueueDepth: 64}, RestoreDeps{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var got bytes.Buffer
		if err := e.Checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("shards=%d: re-encoded checkpoint differs from the file\ngot:  %s\nwant: %s", shards, got.Bytes(), want)
		}
	}
}

// TestCheckpointStatsAndRestoredDay: a checkpoint of a high-volume open
// day reports its encoded size and the resident builder state in Stats,
// and restores — onto another shard count — to the same day statistics.
func TestCheckpointStatsAndRestoredDay(t *testing.T) {
	const n = 30000
	recs := benchRecords(n)
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 8192})
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 512 {
		if err := e.IngestBatch(recs[i:min(i+512, n)]); err != nil {
			t.Fatal(err)
		}
	}
	var v2 bytes.Buffer
	if err := e.Checkpoint(&v2); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.LastCheckpointBytes != int64(v2.Len()) {
		t.Fatalf("Stats.LastCheckpointBytes = %d, want %d", st.LastCheckpointBytes, v2.Len())
	}
	if st.ResidentBuilderDomains == 0 {
		t.Fatal("Stats.ResidentBuilderDomains = 0 with an open day")
	}

	restored, err := Restore(&v2, Config{Shards: 2, QueueDepth: 64}, RestoreDeps{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	repA, okA := e.DayReport("2014-02-03")
	repB, okB := restored.DayReport("2014-02-03")
	if !okA || !okB || repA.Stats != repB.Stats {
		t.Fatalf("restored day stats differ: %v %+v vs %v %+v", okA, repA.Stats, okB, repB.Stats)
	}
	e.Close()
	restored.Close()
}

// TestCheckpointDoesNotBlockIngest: the engine freeze of a v2 checkpoint is
// the builder clone, not the encode — an ingest issued while the encode is
// still draining into a slow writer must complete. The slow writer stalls
// inside Write, which runs strictly after the engine lock is released.
func TestCheckpointDoesNotBlockIngest(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2, QueueDepth: 64})
	defer e.Close()
	day := testDay()
	if err := e.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := ingest1(e, rec(day, "h1", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{})
	first := true
	w := writerFunc(func(p []byte) (int, error) {
		if first {
			first = false
			<-gate // park the encode mid-write; the engine lock is already free
		}
		return len(p), nil
	})
	done := make(chan error, 1)
	go func() { done <- e.Checkpoint(w) }()
	// An ingest during the parked encode must not block on the checkpoint.
	ingested := make(chan error, 1)
	go func() {
		ingested <- ingest1(e, rec(day, "h2", "beta.test", time.Hour))
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("ingest blocked behind a checkpoint encode")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := e.DayReport("2014-02-03")
	if !ok || rep.Stats.Records != 101 {
		t.Fatalf("day report %v %+v, want 101 records", ok, rep.Stats)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCheckpointRestoresLivePairs: the advisory LiveAutomated view survives
// a checkpoint/restore cycle onto any shard count although the file carries
// nothing for it — it is derived from the builder's timestamps, and Restore
// re-partitions those with the ingest routing, so a domain's restored and
// future visits meet on one shard: every beacon continued after the restore
// is listed exactly once, with its full sample count, exactly as on an engine
// that was never interrupted.
func TestCheckpointRestoresLivePairs(t *testing.T) {
	day := testDay()
	beacon := func(host, domain string, period time.Duration, from, n int) []logs.ProxyRecord {
		recs := make([]logs.ProxyRecord, 0, n)
		for i := from; i < from+n; i++ {
			recs = append(recs, rec(day, host, domain, time.Duration(i)*period))
		}
		return recs
	}
	// Three beaconing pairs (two sharing a domain) plus a one-shot visit that
	// never reaches a verdict; each beacon is cut at the checkpoint.
	beacons := []struct {
		host, domain string
		period       time.Duration
	}{
		{"h1", "c2a.test", time.Minute},
		{"h2", "c2b.test", 90 * time.Second},
		{"h3", "c2a.test", 2 * time.Minute},
	}
	const before, after = 7, 5
	first := []logs.ProxyRecord{rec(day, "h4", "once.test", time.Hour)}
	var more []logs.ProxyRecord
	for _, b := range beacons {
		first = append(first, beacon(b.host, b.domain, b.period, 0, before)...)
		more = append(more, beacon(b.host, b.domain, b.period, before, after)...)
	}

	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 64})
	defer e.Close()
	if err := e.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(first); err != nil {
		t.Fatal(err)
	}
	want := e.LiveAutomated(0)
	if len(want) != len(beacons) {
		t.Fatalf("before checkpoint: %d automated pairs, want %d: %+v", len(want), len(beacons), want)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("livePairs")) {
		t.Fatal("checkpoint still writes a livePairs section")
	}
	if err := e.IngestBatch(more); err != nil {
		t.Fatal(err)
	}
	wantAfter := e.LiveAutomated(0)
	if len(wantAfter) != len(beacons) {
		t.Fatalf("uninterrupted engine lists %d pairs, want %d: %+v", len(wantAfter), len(beacons), wantAfter)
	}
	for _, p := range wantAfter {
		if p.Samples != before+after-1 {
			t.Fatalf("uninterrupted pair %+v has %d samples, want %d", p, p.Samples, before+after-1)
		}
	}

	samePairs := func(t *testing.T, got, want []LivePair) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d pairs, want %d\ngot:  %+v\nwant: %+v", len(got), len(want), got, want)
		}
		for i := range want {
			g, w := got[i], want[i]
			// Divergence sums bin frequencies in map order inside
			// JeffreyDivergence, so it is only reproducible to float
			// summation order; everything else must be exact.
			if g.Host != w.Host || g.Domain != w.Domain || g.Period != w.Period || g.Samples != w.Samples {
				t.Fatalf("pair %d: got %+v, want %+v", i, g, w)
			}
			if d := g.Divergence - w.Divergence; d > 1e-9 || d < -1e-9 {
				t.Fatalf("pair %d: divergence %g, want %g", i, g.Divergence, w.Divergence)
			}
		}
	}
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e2, err := Restore(bytes.NewReader(buf.Bytes()), Config{Shards: shards, QueueDepth: 64}, RestoreDeps{})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			samePairs(t, e2.LiveAutomated(0), want)
			if err := e2.IngestBatch(more); err != nil {
				t.Fatal(err)
			}
			samePairs(t, e2.LiveAutomated(0), wantAfter)
			var pairs int
			for _, ss := range e2.Stats().Shards {
				pairs += ss.LivePairs
			}
			if pairs != len(beacons)+1 {
				t.Fatalf("restored engine holds %d live pairs, want %d: a pair's restored and new visits landed on different shards", pairs, len(beacons)+1)
			}
		})
	}
}

// TestCheckpointAfterRestoreWritesEachMarkerOnce: Restore puts each marker
// domain on the shard its hash says, which is where a later lease-less record
// for the same domain routes — so the shards' marker sets stay disjoint, the
// marker count stays the number of distinct domains and the bytes equal those
// an engine that was never restarted writes for the same records. (Parking
// the restored markers on one shard would list a domain twice.)
func TestCheckpointAfterRestoreWritesEachMarkerOnce(t *testing.T) {
	day := testDay()
	const domains = 16 // enough that some route off shard 0 under any hash seed
	leaseless := make([]logs.ProxyRecord, domains)
	for i := range leaseless {
		leaseless[i] = logs.ProxyRecord{Time: day.Add(time.Duration(i) * time.Minute),
			SrcIP: netip.MustParseAddr("10.9.9.9"), Domain: fmt.Sprintf("marker-%02d.test", i), Method: "GET", Status: 200}
	}
	e := trainOnlyEngine(Config{Shards: 2, QueueDepth: 64})
	defer e.Close()
	if err := e.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(leaseless); err != nil {
		t.Fatal(err)
	}
	if err := ingest1(e, rec(day, "h1", "alpha.test", time.Hour)); err != nil {
		t.Fatal(err)
	}
	var mid bytes.Buffer
	if err := e.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(mid.Bytes()), Config{Shards: 2, QueueDepth: 64}, RestoreDeps{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	var want, got bytes.Buffer
	for _, run := range []struct {
		eng *Engine
		out *bytes.Buffer
	}{{e, &want}, {restored, &got}} {
		if err := run.eng.IngestBatch(leaseless); err != nil {
			t.Fatal(err)
		}
		if err := run.eng.Checkpoint(run.out); err != nil {
			t.Fatal(err)
		}
	}
	meta := []byte(fmt.Sprintf(`{"markerDomains":%d,"unresolved":%d}`, domains, 2*domains))
	if !bytes.Contains(got.Bytes(), meta) {
		t.Errorf("checkpoint after restore lacks the open-day header %s", meta)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("checkpoint after restore differs from the uninterrupted engine's\nrestored:      %s\nuninterrupted: %s", got.Bytes(), want.Bytes())
	}
}

// TestCheckpointBytesIndependentOfShardCount: engines at 1, 3 and 8 shards
// that ingest the same open day write byte-identical checkpoints. The day
// holds one host using one UA toward domains that land on different shards,
// so several shards' builders hold the same (host, UA) pair and the writer
// must union their pair sets; lease-less marker domains; and runs toward
// domains the history already holds, which fold as known-visit counts.
func TestCheckpointBytesIndependentOfShardCount(t *testing.T) {
	day := testDay()
	known := []string{"known-a.test", "known-b.test", "known-c.test"}
	var recs []logs.ProxyRecord
	for i := 0; i < 24; i++ {
		r := rec(day, "h1", fmt.Sprintf("fresh-%02d.test", i), time.Duration(i)*time.Minute)
		r.UserAgent = "Agent/1.0"
		recs = append(recs, r)
	}
	for i, d := range known {
		for j := 0; j < 3; j++ {
			r := rec(day, fmt.Sprintf("h%d", 2+j), d, time.Hour+time.Duration(3*i+j)*time.Second)
			r.UserAgent = "Agent/2.0"
			recs = append(recs, r)
		}
	}
	for i := 0; i < 8; i++ {
		recs = append(recs, logs.ProxyRecord{Time: day.Add(2*time.Hour + time.Duration(i)*time.Minute),
			SrcIP: netip.MustParseAddr("10.9.9.9"), Domain: fmt.Sprintf("marker-%d.test", i), Method: "GET", Status: 200})
	}

	var want []byte
	for _, shards := range []int{1, 3, 8} {
		e := trainOnlyEngine(Config{Shards: shards, QueueDepth: 64})
		e.hist.UpdateDomains(day.AddDate(0, 0, -1), known)
		if err := e.BeginDay(day, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if shards == 1 {
			want = buf.Bytes()
			for _, part := range [][]byte{
				[]byte(`{"markerDomains":8,"unresolved":8}`),
				[]byte(`"uaPairs":4}`),
				[]byte(`{"d":"known-b.test","hosts":[],"known":3}`),
			} {
				if !bytes.Contains(want, part) {
					t.Fatalf("one-shard checkpoint lacks %s:\n%s", part, want)
				}
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d shards write a checkpoint that differs from one shard's\n%d shards: %s\n1 shard:  %s", shards, shards, buf.Bytes(), want)
		}
	}
}
