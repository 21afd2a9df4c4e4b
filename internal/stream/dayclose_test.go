package stream

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/whois"
)

// operationEngine returns an engine whose every day feeds the Process path:
// without an intel oracle the pipeline stays calibrating, but each day still
// publishes a SOC daily.
func operationEngine(cfg Config) *Engine {
	return New(cfg, pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil))
}

// TestIngestDuringSlowDayClose is the tentpole invariant: rollover is
// swap-and-continue, so ingestion into the next day proceeds while the
// previous day's close is artificially stalled on the background
// goroutine — even with a checkpoint waiting the close out — and
// /stats-level introspection surfaces the pending close.
func TestIngestDuringSlowDayClose(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	entered := make(chan string, 4)
	release := make(chan struct{})
	e.closeHook = func(date string) {
		entered <- date
		<-release
	}

	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ingest1(e, rec(d1, fmt.Sprintf("h%d", i%3), "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// The rollover returns with day 1's close still parked in the hook.
	if err := e.BeginDay(d2, nil); err != nil {
		t.Fatal(err)
	}
	if got := <-entered; got != "2014-02-03" {
		t.Fatalf("close started for %s, want 2014-02-03", got)
	}

	// Ingestion proceeds while the close is stalled — the old engine held
	// the exclusive lock for the whole pipeline run here.
	for i := 0; i < 20; i++ {
		if err := ingest1(e, rec(d2, fmt.Sprintf("h%d", i%5), "beta.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatalf("ingest during day-close: %v", err)
		}
	}
	st := e.Stats()
	if st.Closing != "2014-02-03" {
		t.Fatalf("Stats.Closing = %q, want the in-flight day", st.Closing)
	}
	if st.Day != "2014-02-04" || st.DayRecords != 20 {
		t.Fatalf("open day = %q/%d records, want 2014-02-04/20", st.Day, st.DayRecords)
	}
	if _, ok := e.PendingClose(); !ok {
		t.Fatal("PendingClose reports nothing in flight")
	}

	// A checkpoint requested now waits out the stalled close — without
	// holding the engine lock, so ingestion still proceeds — and then
	// describes the settled close: day 1 in the history, day 2 open.
	var buf bytes.Buffer
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- e.Checkpoint(&buf) }()
	select {
	case err := <-ckptDone:
		close(release)
		t.Fatalf("Checkpoint returned (%v) while the close was still stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := ingest1(e, rec(d2, "h9", "beta.test", time.Hour)); err != nil {
		t.Fatalf("ingest behind a waiting checkpoint: %v", err)
	}
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	hdr := decodeCheckpointHeader(t, buf.Bytes())
	if hdr.Closing != "" || bytes.Contains(buf.Bytes(), []byte(`"closing"`)) {
		t.Fatalf("checkpoint still carries a closing day: header %+v", hdr)
	}
	if hdr.DaysDone != 1 || hdr.Day != d2.Format(time.RFC3339) || hdr.DayRecords != 21 {
		t.Fatalf("checkpoint header = daysDone %d day %q records %d, want the settled close: 1, %s, 21",
			hdr.DaysDone, hdr.Day, hdr.DayRecords, d2.Format(time.RFC3339))
	}

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rep1, ok := e.DayReport("2014-02-03")
	if !ok || rep1.Stats.Records != 10 {
		t.Fatalf("day 1 report: %v %+v, want 10 records", ok, rep1.Stats)
	}
	rep2, ok := e.DayReport("2014-02-04")
	if !ok || rep2.Stats.Records != 21 {
		t.Fatalf("day 2 report: %v %+v, want 21 records", ok, rep2.Stats)
	}
	st = e.Stats()
	if st.Closing != "" {
		t.Fatalf("Stats.Closing = %q after completion, want empty", st.Closing)
	}
	if st.LastDayCloseMillis < 0 || st.LastRolloverPauseMicros < 0 {
		t.Fatalf("negative close metrics: %+v", st)
	}
}

// TestReportWaitsForInFlightClose: reading the report of the day that just
// rolled over blocks until the background close publishes it — the
// ordering guarantee the HTTP 202 path opts out of via PendingClose.
func TestReportWaitsForInFlightClose(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	release := make(chan struct{})
	started := make(chan string, 2)
	e.closeHook = func(date string) {
		started <- date
		<-release
	}
	d1 := testDay()
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ingest1(e, rec(d1, "h1", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BeginDay(d1.AddDate(0, 0, 1), nil); err != nil {
		t.Fatal(err)
	}
	<-started

	got := make(chan int, 1)
	go func() {
		rep, ok := e.DayReport("2014-02-03")
		if !ok {
			got <- -1
			return
		}
		got <- rep.Stats.Records
	}()
	select {
	case n := <-got:
		t.Fatalf("DayReport returned %d during the in-flight close", n)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if n := <-got; n != 5 {
		t.Fatalf("DayReport after close = %d records, want 5", n)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestOnReportReadsItsOwnDay: the close publishes the day before it runs
// OnReport, so the callback can read its own day back with Report and
// DayReport — both answer from publication instead of waiting out the close
// the callback is part of. A build that waits would deadlock here, so the
// reads are bounded and a timeout fails the test (abandoning the engine, whose
// close can then never finish).
func TestOnReportReadsItsOwnDay(t *testing.T) {
	type read struct {
		date        string
		daily, full bool
	}
	reads := make(chan read, 2)
	var e *Engine
	e = operationEngine(Config{Shards: 2, OnReport: func(rep pipeline.EnterpriseDayReport, _ *report.Daily) {
		date := rep.Day.Format("2006-01-02")
		_, daily := e.Report(date)
		_, full := e.DayReport(date)
		reads <- read{date, daily, full}
	}})
	d1 := testDay()
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ingest1(e, rec(d1, "h1", "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- e.Flush() }()
	select {
	case r := <-reads:
		if r.date != "2014-02-03" || !r.daily || !r.full {
			t.Fatalf("OnReport read back %+v, want 2014-02-03 with both reports", r)
		}
	case <-time.After(10 * time.Second):
		abandonEngine(e)
		t.Fatal("OnReport's Report/DayReport of its own day did not return: it waits out the close it runs in")
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestCheckpointAfterPublicationSeesCommit guards the window between a
// close's publication and its commit: a reader that sees the day's report and
// at once takes a checkpoint and a preview must get the committed history —
// the day counted in DaysDone, its domains in the history section — and a
// preview that does not count those domains as new again. OnReport holds the
// close open until the poller has seen the report, so the two requests always
// land inside the close.
func TestCheckpointAfterPublicationSeesCommit(t *testing.T) {
	seen := make(chan struct{})
	release := make(chan struct{})
	var e *Engine
	e = operationEngine(Config{Shards: 2, OnReport: func(pipeline.EnterpriseDayReport, *report.Daily) {
		select {
		case <-seen:
		case <-time.After(10 * time.Second):
		}
	}})
	e.closeHook = func(string) { <-release }
	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for _, d := range []string{"alpha.test", "beta.test"} {
			if err := ingest1(e, rec(d1, fmt.Sprintf("h%d", i%2), d, time.Duration(i)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.BeginDay(d2, nil); err != nil { // day 1's close parks in the hook
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, d := range []string{"alpha.test", "gamma.test"} {
			if err := ingest1(e, rec(d2, "h3", d, time.Duration(i)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}

	type result struct {
		ckpt bytes.Buffer
		pr   PreviewReport
		err  error
	}
	got := make(chan *result, 1)
	go func() {
		r := &result{}
		defer func() { got <- r }()
		for {
			if _, ok, _ := e.TryReport("2014-02-03"); ok {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		close(seen)
		if r.err = e.Checkpoint(&r.ckpt); r.err == nil {
			r.pr, r.err = e.Preview(1)
		}
	}()
	close(release)
	var r *result
	select {
	case r = <-got:
	case <-time.After(20 * time.Second):
		abandonEngine(e)
		t.Fatal("the report never appeared, or the checkpoint/preview never returned")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if hdr := decodeCheckpointHeader(t, r.ckpt.Bytes()); hdr.DaysDone != 1 {
		t.Fatalf("checkpoint taken at publication has daysDone=%d, want 1", hdr.DaysDone)
	}
	restored, err := Restore(bytes.NewReader(r.ckpt.Bytes()), Config{Shards: 2}, RestoreDeps{Whois: whois.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.DaysDone(); n != 1 {
		t.Errorf("restored DaysDone = %d, want 1", n)
	}
	for _, d := range []string{"alpha.test", "beta.test"} {
		if !restored.Pipeline().History().SeenDomain(d) {
			t.Errorf("checkpoint taken at publication lacks day 1's domain %s in its history", d)
		}
	}
	abandonEngine(restored)
	if r.pr.Date != "2014-02-04" || r.pr.NewDomains != 1 {
		t.Errorf("preview taken at publication counts %d new domains on %s, want 1 (gamma.test; alpha.test was new on 2014-02-03)",
			r.pr.NewDomains, r.pr.Date)
	}
	e.Close()
}

// TestWorkerCountDeterminism is the golden Workers=1-vs-N suite: the
// parallel day-close stages (snapshot partitioning, periodicity
// profiling, feature extraction, the per-iteration Detect_C&C /
// Compute_SimScore fans of Algorithm 1) must produce byte-identical SOC
// reports and identical day statistics for every worker count. CI runs
// this under -race with -cpu 1,4, so GOMAXPROCS (the Workers=0 default)
// varies too.
func TestWorkerCountDeterminism(t *testing.T) {
	fx := newEquivFixture(t, 91)

	run := func(workers int) map[string][]byte {
		cfg := fx.pipeCfg
		cfg.Workers = workers
		pipe := pipeline.NewEnterprise(cfg, fx.whois, fx.oracle.Reported, fx.oracle.IOCs)
		reports, err := batch.RunEnterpriseDir(fx.dir, pipe, fx.training)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make(map[string][]byte, len(reports))
		for _, rep := range reports {
			date := rep.Day.Format("2006-01-02")
			// The SOC daily is the byte-identity anchor; fold the raw
			// detection lists in as well so a discrepancy hidden by report
			// formatting still fails.
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "new=%d rare=%d automated=%d cc=%d\n",
				rep.NewCount, rep.RareCount, len(rep.Automated), len(rep.CC))
			for _, ad := range rep.Automated {
				fmt.Fprintf(&buf, "auto %s %.17g %v\n", ad.Domain, ad.Score, ad.AutoHosts)
			}
			fmt.Fprintf(&buf, "nohint %v\nsoc %v\n", rep.NoHintDomains(), rep.SOCHintDomains())
			buf.Write(dailyBytes(t, report.Build(rep)))
			out[date] = buf.Bytes()
		}
		return out
	}

	want := run(1)
	if len(want) == 0 {
		t.Fatal("no processed days")
	}
	for _, workers := range []int{2, 4, 0} { // 0 = GOMAXPROCS
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d days, want %d", workers, len(got), len(want))
		}
		for date, w := range want {
			g, ok := got[date]
			if !ok {
				t.Fatalf("workers=%d: missing day %s", workers, date)
			}
			if !bytes.Equal(g, w) {
				t.Errorf("workers=%d: day %s differs from sequential run\nseq: %s\npar: %s",
					workers, date, w, g)
			}
		}
	}
}

// TestConcurrentBeginDaySameBoundary: two producers hitting the same day
// boundary while an older close is still in flight must not double-close.
// Both BeginDay calls park waiting for the in-flight close; the first to
// wake rolls the day over and opens the next one — the second must notice
// the day it meant to close is gone and must NOT sever the newly opened
// day mid-stream (the regression this guards: beginCloseLocked revalidates
// its expected day after the lock-release wait).
func TestConcurrentBeginDaySameBoundary(t *testing.T) {
	release := make(chan struct{})
	first := true
	e := trainOnlyEngine(Config{Shards: 2})
	e.closeHook = func(string) {
		if first {
			first = false // hook runs on serialized close goroutines: no race
			<-release
		}
	}
	defer e.Close()

	d0, d1, d2 := testDay(), testDay().AddDate(0, 0, 1), testDay().AddDate(0, 0, 2)
	if err := e.BeginDay(d0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ingest1(e, rec(d0, "h1", "alpha.test", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := e.BeginDay(d1, nil); err != nil { // close of d0 parks in the hook
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ingest1(e, rec(d1, "h1", "beta.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	// Two racing producers both cross the d1 -> d2 boundary.
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() { done <- e.BeginDay(d2, nil) }()
	}
	time.Sleep(20 * time.Millisecond) // let both park on the in-flight close
	close(release)
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// d2 must still be open and ingestible — the second waiter must not
	// have closed it out from under the first.
	for i := 0; i < 6; i++ {
		if err := ingest1(e, rec(d2, "h1", "gamma.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	dates := e.Dates()
	seen := map[string]int{}
	for _, d := range dates {
		seen[d]++
	}
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("day %s closed %d times (dates %v)", d, n, dates)
		}
	}
	if len(dates) != 3 {
		t.Fatalf("dates = %v, want 3 days", dates)
	}
	rep, ok := e.DayReport(d2.Format("2006-01-02"))
	if !ok || rep.Stats.Records != 6 {
		t.Fatalf("day 3 report: %v %+v, want all 6 records in one close", ok, rep.Stats)
	}
}
