package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
)

// TestPreviewDoesNotPerturbDayClose is the live-preview safety anchor:
// hammering Preview from several goroutines throughout ingestion — across
// every rollover, during training, calibration and operation days — must
// leave the day-close reports byte-for-byte identical to the batch
// reference. A preview that mutates any live state (builders, history,
// calibration, models) shows up here as a diff; a preview that deadlocks
// against the close protocol shows up as a timeout.
func TestPreviewDoesNotPerturbDayClose(t *testing.T) {
	fx := newEquivFixture(t, 91)
	want, _ := fx.batchDailies(t)
	if len(want) == 0 {
		t.Fatal("batch produced no processed days")
	}
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Config{Shards: 4, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var previews atomic.Int64
	for _, workers := range []int{1, 4} {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr, err := e.Preview(workers)
				switch {
				case err == nil:
					previews.Add(1)
					if pr.Date == "" {
						t.Error("successful preview with empty date")
						return
					}
				case errors.Is(err, ErrNoDay):
					// Between Flush and the next BeginDay: fine.
				default:
					t.Errorf("preview: %v", err)
					return
				}
			}
		}(workers)
	}

	for _, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		for len(recs) > 0 {
			n := min(97, len(recs))
			if err := e.IngestBatch(recs[:n]); err != nil {
				t.Fatal(err)
			}
			recs = recs[n:]
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if previews.Load() == 0 {
		t.Fatal("no preview ever completed — the test exercised nothing")
	}

	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: report with concurrent previews differs from batch\nbatch:  %s\nstream: %s",
				date, wantJSON, gotJSON)
		}
	}
	e.Close()
}

// TestPreviewDeterministicAndMatchesClose pins the preview's semantics: on
// a quiescent engine the report is identical for any worker count, and a
// preview taken after the day's final record equals the day-close report
// that rollover then publishes — the preview really is "what a close right
// now would say".
func TestPreviewDeterministicAndMatchesClose(t *testing.T) {
	fx := newEquivFixture(t, 85)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 4, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())
	defer e.Close()

	last := len(days) - 1
	var lastRecords int
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
		if i == last {
			lastRecords = len(recs)
		}
	}

	// The engine is quiescent: same frozen state, any fan-out.
	norm := func(pr PreviewReport) []byte {
		pr.GeneratedAt = PreviewReport{}.GeneratedAt
		pr.DurationMillis = 0
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base, err := e.Preview(1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Records != uint64(lastRecords) {
		t.Fatalf("preview froze %d records, day has %d", base.Records, lastRecords)
	}
	if base.Calibrating {
		t.Fatal("final operation day previewed as calibrating")
	}
	baseJSON := norm(base)
	for _, workers := range []int{2, 4, 0} {
		pr, err := e.Preview(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := norm(pr); !bytes.Equal(got, baseJSON) {
			t.Errorf("preview(workers=%d) differs from preview(workers=1)\n1: %s\n%d: %s",
				workers, baseJSON, workers, got)
		}
	}

	// Stats observability: the engine remembers the last preview.
	if st := e.Stats(); st.LastPreviewMillis < 0 || st.PreviewCandidates != int64(len(base.Report.Domains)) {
		t.Fatalf("stats after preview: %+v, want %d candidates", st, len(base.Report.Domains))
	}

	// A preview over the complete day IS the close: flush and compare bytes.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	date := days[last].Date.Format("2006-01-02")
	closed, ok := e.Report(date)
	if !ok {
		t.Fatalf("no close report for %s", date)
	}
	if closedJSON := dailyBytes(t, closed); !bytes.Equal(dailyBytes(t, base.Report), closedJSON) {
		t.Errorf("full-day preview differs from the day-close report\npreview: %s\nclose:   %s",
			dailyBytes(t, base.Report), closedJSON)
	}
}

// TestPreviewJudgesCommittedHistory: a preview requested while yesterday's
// close is still in flight waits it out, so yesterday's new domains are in
// the history it judges today against — a domain new yesterday and visited
// again today is not counted new a second time.
func TestPreviewJudgesCommittedHistory(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	e.closeHook = func(string) {
		entered <- struct{}{}
		<-release
	}
	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ingest1(e, rec(d1, "h1", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BeginDay(d2, nil); err != nil {
		t.Fatal(err)
	}
	<-entered // day 1's close is stalled, alpha.test not yet in the history
	for i := 0; i < 5; i++ {
		if err := ingest1(e, rec(d2, "h2", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := ingest1(e, rec(d2, "h2", "gamma.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		pr       PreviewReport
		err      error
		daysDone int
	}
	got := make(chan result, 1)
	go func() {
		pr, err := e.Preview(1)
		got <- result{pr, err, e.DaysDone()}
	}()
	select {
	case r := <-got:
		close(release)
		t.Fatalf("Preview returned during the stalled close: newDomains=%d err=%v", r.pr.NewDomains, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.daysDone != 1 {
		t.Fatalf("Preview returned with daysDone=%d; want it after day 1's close", r.daysDone)
	}
	if r.pr.Date != "2014-02-04" || r.pr.NewDomains != 1 {
		t.Fatalf("preview of %s counts %d new domains, want 1 (gamma.test; alpha.test was new on 2014-02-03)",
			r.pr.Date, r.pr.NewDomains)
	}
}

// TestPreviewErrors: no open day and a closed engine are clean refusals.
func TestPreviewErrors(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	if _, err := e.Preview(0); !errors.Is(err, ErrNoDay) {
		t.Fatalf("got %v, want ErrNoDay", err)
	}
	e.Close()
	if _, err := e.Preview(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}
