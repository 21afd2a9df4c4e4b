package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/intel"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/whois"
)

// replayRecord builds an engine-acceptable proxy record for day files.
func replayRecord(day time.Time, i int) logs.ProxyRecord {
	return logs.ProxyRecord{
		Time:      day.Add(time.Duration(i%86000) * time.Second),
		Host:      fmt.Sprintf("host-%d", i%9),
		SrcIP:     netip.MustParseAddr("10.0.0.4"),
		Domain:    fmt.Sprintf("site-%d.example.org", i%11),
		DestIP:    netip.MustParseAddr("198.51.100.4"),
		URL:       "/",
		Method:    "GET",
		Status:    200,
		UserAgent: "ua/1.0",
	}
}

// writeReplayDataset lays out a cmd/datagen-shaped dataset with the given
// per-day record counts, so a small first day followed by a much bigger
// one forces the replay buffer to outgrow its pooled allocation mid-run.
func writeReplayDataset(t testing.TB, counts []int) (string, time.Time) {
	t.Helper()
	dir := t.TempDir()
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for d, n := range counts {
		day := base.AddDate(0, 0, d)
		date := day.Format("2006-01-02")
		recs := make([]logs.ProxyRecord, n)
		for i := range recs {
			recs[i] = replayRecord(day, i)
		}
		writeProxyTSV(t, filepath.Join(dir, "proxy-"+date+".tsv"), recs)
		leases, err := json.Marshal(map[string]string{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), leases, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, base
}

func newReplayEngine(training int) *Engine {
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: 2},
		whois.NewRegistry(), intel.NewOracle().Reported, intel.NewOracle().IOCs)
	return New(Config{Shards: 2, TrainingDays: training}, pipe)
}

// replayDays runs ReplayDir and returns the per-day record counts OnDay saw.
func replayDays(e *Engine, dir string, opts ReplayOptions) ([]int, error) {
	var got []int
	opts.OnDay = func(_ batch.Day, records int) { got = append(got, records) }
	err := ReplayDir(e, dir, opts)
	return got, err
}

// checkRouted fails the test unless every batch the engine accepted has
// been routed: called as ReplayDir returns, it holds the promise that no
// routing of the replay — and so no use of its record buffers or decoder —
// outlives it.
func checkRouted(t *testing.T, e *Engine) {
	t.Helper()
	if routed, accepted := e.totalRecords.Load(), e.seq.Load(); routed != accepted {
		t.Fatalf("ReplayDir returned with %d of %d accepted records routed", routed, accepted)
	}
}

// awaitGoroutines waits for the goroutine count to fall back to want: every
// ReplayDir return path waits out its routing goroutines, so nothing it
// started may outlive it (the engine's own day-close goroutines may take a
// moment to finish).
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d: ReplayDir left one behind", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayDirBufferGrowth pins the chunking of a replay: days smaller than
// a chunk, empty, exactly one chunk, one record over, and several chunks long
// must all land whole, and an empty day file opens and closes without a
// report.
func TestReplayDirBufferGrowth(t *testing.T) {
	counts := []int{100, 0, replayBatchSize, replayBatchSize + 1, replayBatchSize + 3000, replayBatchSize*2 + 500}
	dir, _ := writeReplayDataset(t, counts)
	var total uint64
	for _, n := range counts {
		total += uint64(n)
	}
	before := runtime.NumGoroutine()
	e := newReplayEngine(len(counts) + 1) // all training: chunking is the point, not detection
	got, err := replayDays(e, dir, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, counts) {
		t.Errorf("OnDay saw %v records per day, want %v", got, counts)
	}
	if got := e.Stats().TotalRecords; got != total {
		t.Errorf("replayed %d records, want %d", got, total)
	}
	if done := e.DaysDone(); done != len(counts)-1 {
		t.Errorf("%d days closed, want %d (the empty day has no report)", done, len(counts)-1)
	}
	e.Close()
	awaitGoroutines(t, before)
}

// TestReplayDirStops covers ReplayOptions.Stop: an interrupted replay
// returns ErrStopped promptly, without flushing — the open day stays open
// for the shutdown checkpoint to preserve — and with every batch it handed
// over routed.
func TestReplayDirStops(t *testing.T) {
	dir, _ := writeReplayDataset(t, []int{50, 50, 50})
	before := runtime.NumGoroutine()

	// Stop closed while day 1 is announced, i.e. after its last chunk: day 1
	// is in the engine, day 2 is never begun.
	e := newReplayEngine(4)
	stop := make(chan struct{})
	days := 0
	err := ReplayDir(e, dir, ReplayOptions{
		Stop: stop,
		OnDay: func(d batch.Day, records int) {
			days++
			if days == 1 {
				close(stop)
			}
		},
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	checkRouted(t, e)
	if days != 1 {
		t.Fatalf("replay announced %d days after stop, want 1", days)
	}
	if done := e.DaysDone(); done != 0 {
		t.Fatalf("replay flushed %d days despite the stop", done)
	}
	if st := e.Stats(); st.TotalRecords != 50 || st.Day != "2014-03-01" {
		t.Fatalf("stopped with %d records and day %q open, want day 1's 50 in 2014-03-01", st.TotalRecords, st.Day)
	}
	abandonEngine(e)

	// A pre-closed Stop aborts before anything is ingested.
	e = newReplayEngine(4)
	closed := make(chan struct{})
	close(closed)
	if err := ReplayDir(e, dir, ReplayOptions{Stop: closed}); !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-closed stop: err = %v, want ErrStopped", err)
	}
	checkRouted(t, e)
	if got := e.Stats().TotalRecords; got != 0 {
		t.Fatalf("pre-closed stop ingested %d records, want 0", got)
	}
	abandonEngine(e)
	awaitGoroutines(t, before)

	// Stop closed from another goroutine mid-day: at most one chunk is
	// accepted after it. The shard worker is parked, so once three chunks
	// are accepted — one in the shard's one queue slot, two routing against
	// the full queue, the engine's bound of 2 × Shards — the replayer cannot
	// get a fourth accepted before the worker is released; the stop closes
	// there, against the sequence numbers reserved by then.
	const chunks = 5
	dir, _ = writeReplayDataset(t, []int{chunks * replayBatchSize})
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e = New(Config{Shards: 1, QueueDepth: 1, TrainingDays: 2}, pipe)
	before = runtime.NumGoroutine()
	release := make(chan struct{})
	parked := make(chan struct{})
	go e.shards[0].do(func(*shard) { close(parked); <-release })
	<-parked
	stop = make(chan struct{})
	result := make(chan error, 1)
	go func() { result <- ReplayDir(e, dir, ReplayOptions{Stop: stop}) }()
	for e.seq.Load() < 3*replayBatchSize {
		time.Sleep(time.Millisecond)
	}
	reserved := e.seq.Load()
	close(stop)
	close(release)
	if err := <-result; !errors.Is(err, ErrStopped) {
		t.Fatalf("mid-day stop: err = %v, want ErrStopped", err)
	}
	checkRouted(t, e)
	if got := e.Stats().TotalRecords; got < reserved || got > reserved+replayBatchSize {
		t.Fatalf("mid-day stop left %d records, want the %d reserved at the stop and at most one chunk more", got, reserved)
	}
	awaitGoroutines(t, before)
	abandonEngine(e)
}

// TestReplayDirMalformedLine pins the streaming replay's one behavioural
// change: a malformed line is found after the records before it have gone
// in, so they stay in the open day (the TCP listener's rule: deliver what
// parsed, then refuse), the error names file and line, and the day before
// closed normally.
func TestReplayDirMalformedLine(t *testing.T) {
	const good = replayBatchSize + 10 // the bad line sits in day 2's second chunk
	dir, base := writeReplayDataset(t, []int{30, good, 30})
	day2 := filepath.Join(dir, "proxy-"+base.AddDate(0, 0, 1).Format("2006-01-02")+".tsv")
	f, err := os.OpenFile(day2, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not\ta\tproxy\tline\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	e := newReplayEngine(4)
	got, err := replayDays(e, dir, ReplayOptions{})
	if err == nil {
		t.Fatal("replay accepted a malformed line")
	}
	checkRouted(t, e)
	if want := fmt.Sprintf("%s: line %d:", day2, good+1); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name %q", err, want)
	}
	if !slices.Equal(got, []int{30}) {
		t.Errorf("OnDay saw %v, want only day 1's 30 (day 2 never finished)", got)
	}
	st := e.Stats()
	if st.TotalRecords != 30+good || st.Day != "2014-03-02" || st.DayRecords != good {
		t.Errorf("after the refusal: %d records, day %q open with %d; want %d, 2014-03-02 with %d",
			st.TotalRecords, st.Day, st.DayRecords, 30+good, good)
	}
	// Day 1 closes in the background; it must get there on its own.
	for deadline := time.Now().Add(5 * time.Second); !slices.Equal(e.Dates(), []string{"2014-03-01"}); {
		if time.Now().After(deadline) {
			t.Fatalf("completed days %v, want day 1 closed normally", e.Dates())
		}
		time.Sleep(time.Millisecond)
	}
	abandonEngine(e)
	awaitGoroutines(t, before)
}
