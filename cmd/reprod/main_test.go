package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/whois"
)

func testServer(t *testing.T, ckpt string) (*server, *stream.Engine) {
	t.Helper()
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 2, TrainingDays: 1 << 30}, pipe)
	t.Cleanup(func() { e.Close() })
	return newServer(e, ckpt, 0, nil), e
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	out := make(map[string]any)
	if rr.Body.Len() > 0 {
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr, out
}

func proxyTSV(t *testing.T, recs []logs.ProxyRecord) string {
	t.Helper()
	var buf bytes.Buffer
	w := logs.NewProxyWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testRecords(day time.Time, n int) []logs.ProxyRecord {
	recs := make([]logs.ProxyRecord, n)
	for i := range recs {
		recs[i] = logs.ProxyRecord{
			Time:   day.Add(time.Duration(i) * time.Minute),
			Host:   fmt.Sprintf("host-%d", i%7),
			SrcIP:  netip.MustParseAddr("10.0.0.1"),
			Domain: fmt.Sprintf("site-%d.example.org", i%5),
			Method: "GET", Status: 200,
		}
	}
	return recs
}

func TestHTTPLifecycle(t *testing.T) {
	srv, eng := testServer(t, "")
	m := srv.mux()
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	rr, body := doJSON(t, m, "GET", "/healthz", "")
	if rr.Code != http.StatusOK || body["ok"] != true {
		t.Fatalf("healthz = %d %v", rr.Code, body)
	}

	// Ingesting before a day is open conflicts.
	rr, _ = doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 3)))
	if rr.Code != http.StatusConflict {
		t.Fatalf("ingest without day = %d, want 409", rr.Code)
	}

	rr, _ = doJSON(t, m, "POST", "/day", `{"date":"2014-03-01","leases":{"10.0.0.1":"lease-host"}}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("day open = %d", rr.Code)
	}
	rr, body = doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 40)))
	if rr.Code != http.StatusOK || body["ingested"] != float64(40) {
		t.Fatalf("ingest = %d %v", rr.Code, body)
	}
	rr, _ = doJSON(t, m, "POST", "/flush", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("flush = %d", rr.Code)
	}
	if got := eng.DaysDone(); got != 1 {
		t.Fatalf("DaysDone = %d", got)
	}

	rr, body = doJSON(t, m, "GET", "/reports", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("reports = %d", rr.Code)
	}
	dates, _ := body["dates"].([]any)
	if len(dates) != 1 || dates[0] != "2014-03-01" {
		t.Fatalf("dates = %v", body["dates"])
	}

	// A training day has no SOC report.
	rr, _ = doJSON(t, m, "GET", "/report/2014-03-01", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("training-day report = %d, want 404", rr.Code)
	}
	rr, _ = doJSON(t, m, "GET", "/report/not-a-date", "")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad date = %d, want 400", rr.Code)
	}

	rr, body = doJSON(t, m, "GET", "/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats = %d", rr.Code)
	}
	if body["daysDone"] != float64(1) || body["totalRecords"] != float64(40) {
		t.Fatalf("stats body = %v", body)
	}

	// Checkpoint endpoint requires the flag.
	rr, _ = doJSON(t, m, "POST", "/checkpoint", "")
	if rr.Code != http.StatusPreconditionFailed {
		t.Fatalf("checkpoint without path = %d, want 412", rr.Code)
	}
}

func TestHTTPBadPayloads(t *testing.T) {
	srv, eng := testServer(t, "")
	m := srv.mux()
	rr, _ := doJSON(t, m, "POST", "/day", `{"date":"01/02/2014"}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad day = %d, want 400", rr.Code)
	}
	// Whatever follows the object is refused, not ignored: no day opens.
	rr, _ = doJSON(t, m, "POST", "/day", `{"date":"2014-03-01"}{"date":"2014-03-09"}`)
	if rr.Code != http.StatusBadRequest || eng.Stats().Day != "" {
		t.Fatalf("day with trailing object = %d, open day %q; want 400 and no day", rr.Code, eng.Stats().Day)
	}
	rr, _ = doJSON(t, m, "POST", "/day", `{"date":"2014-03-01","leases":{"nope":"h"}}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad lease = %d, want 400", rr.Code)
	}
	rr, _ = doJSON(t, m, "POST", "/day", `{"date":"2014-03-01"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("day = %d", rr.Code)
	}
	rr, _ = doJSON(t, m, "POST", "/ingest", "not\ta\tvalid\trecord\n")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed TSV = %d, want 400", rr.Code)
	}
}

func TestHTTPCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	srv, eng := testServer(t, path)
	m := srv.mux()
	day := time.Date(2014, 3, 2, 0, 0, 0, 0, time.UTC)

	doJSON(t, m, "POST", "/day", `{"date":"2014-03-02"}`)
	rr, _ := doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 25)))
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rr.Code)
	}
	rr, _ = doJSON(t, m, "POST", "/checkpoint", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d", rr.Code)
	}
	// The open day and its buffer survive the checkpoint (peek, not cut).
	rr, _ = doJSON(t, m, "POST", "/flush", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("flush = %d", rr.Code)
	}
	rep, ok := eng.DayReport("2014-03-02")
	if !ok || rep.Stats.Records != 25 {
		t.Fatalf("post-checkpoint flush lost records: %v %+v", ok, rep.Stats)
	}
}

// TestPeriodicCheckpoint: the -checkpoint-interval loop must publish a
// restorable checkpoint without any rollover or HTTP trigger, and stop
// when told to.
func TestPeriodicCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	srv, eng := testServer(t, path)
	day := time.Date(2014, 3, 4, 0, 0, 0, 0, time.UTC)
	if err := eng.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(testRecords(day, 30)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		srv.runPeriodicCheckpoints(5*time.Millisecond, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-loopDone

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := stream.Restore(f, stream.Config{Shards: 1, TrainingDays: 1 << 30}, stream.RestoreDeps{Whois: whois.NewRegistry()})
	if err != nil {
		t.Fatalf("periodic checkpoint does not restore: %v", err)
	}
	defer restored.Close()
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := restored.DayReport("2014-03-04")
	if !ok || rep.Stats.Records != 30 {
		t.Fatalf("restored day: %v %+v, want 30 records", ok, rep.Stats)
	}
}

// TestHTTPIngestBodyTooLarge: one oversized POST must die with 413 and
// zero records ingested, not buffer without bound.
func TestHTTPIngestBodyTooLarge(t *testing.T) {
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 1, TrainingDays: 1 << 30}, pipe)
	t.Cleanup(func() { e.Close() })
	srv := newServer(e, "", 256, nil) // tiny cap for the test
	m := srv.mux()
	day := time.Date(2014, 3, 3, 0, 0, 0, 0, time.UTC)
	doJSON(t, m, "POST", "/day", `{"date":"2014-03-03"}`)

	big := proxyTSV(t, testRecords(day, 50)) // well over 256 bytes
	rr, _ := doJSON(t, m, "POST", "/ingest", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413", rr.Code)
	}
	if got := e.Stats().TotalRecords; got != 0 {
		t.Fatalf("oversized ingest accepted %d records, want 0", got)
	}
	// A body under the cap still works.
	rr, body := doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 1)))
	if rr.Code != http.StatusOK || body["ingested"] != float64(1) {
		t.Fatalf("small ingest = %d %v", rr.Code, body)
	}

	// POST /day is under the same cap: an oversized lease map is refused
	// whole and the open day stays as it was.
	leases := make([]string, 40)
	for i := range leases {
		leases[i] = fmt.Sprintf(`"10.0.0.%d":"host-%d"`, i, i)
	}
	rr, _ = doJSON(t, m, "POST", "/day", `{"date":"2014-03-04","leases":{`+strings.Join(leases, ",")+`}}`)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized day = %d, want 413", rr.Code)
	}
	if got := e.Stats().Day; got != "2014-03-03" {
		t.Fatalf("open day after the refused POST /day = %q, want 2014-03-03", got)
	}
}

// TestHTTPClosedEngineStatus: a closed engine means the daemon is shutting
// down — every mutating endpoint must answer 503, not 500.
func TestHTTPClosedEngineStatus(t *testing.T) {
	srv, eng := testServer(t, "")
	m := srv.mux()
	eng.Close()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/flush", ""},
		{"POST", "/day", `{"date":"2014-03-01"}`},
		{"POST", "/ingest", proxyTSV(t, testRecords(time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC), 2))},
	} {
		rr, _ := doJSON(t, m, tc.method, tc.path, tc.body)
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s on closed engine = %d, want 503", tc.method, tc.path, rr.Code)
		}
	}
}

// TestShutdownCheckpointsThroughStarvedCalibration: a day-close cannot
// fail. With a one-day calibration window and no automated traffic the C&C
// fit stays starved past twice the window, and the daemon must still
// complete every day (each /flush a 200, /stats naming no failed close),
// write its shutdown checkpoint with the open day's acked records, and hand
// a restarted daemon the same calibration progress.
func TestShutdownCheckpointsThroughStarvedCalibration(t *testing.T) {
	// The daemon builds its pipeline from the flags; a checkpoint of a fresh
	// engine is how a test gives it a one-day window and no training days.
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	seed := stream.New(stream.Config{Shards: 1},
		pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: 1}, whois.NewRegistry(), nil, nil))
	var buf bytes.Buffer
	if err := seed.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d := testDaemon(t, daemonOpts{checkpoint: path})
	m := d.srv.mux()

	// One visit per (host, domain): nothing periodic, nothing automated.
	sparse := func(day time.Time, n int) string {
		recs := make([]logs.ProxyRecord, n)
		for i := range recs {
			recs[i] = logs.ProxyRecord{
				Time:   day.Add(time.Duration(i*37) * time.Minute),
				Host:   fmt.Sprintf("host-%d", i),
				SrcIP:  netip.MustParseAddr("10.0.0.1"),
				Domain: fmt.Sprintf("once-%d.example.org", i),
				Method: "GET", Status: 200,
			}
		}
		return proxyTSV(t, recs)
	}
	first := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	openDay := func(i int) {
		t.Helper()
		day := first.AddDate(0, 0, i)
		if rr, body := doJSON(t, m, "POST", "/day", `{"date":"`+day.Format("2006-01-02")+`"}`); rr.Code != http.StatusOK {
			t.Fatalf("day %d open = %d %v", i, rr.Code, body)
		}
		if rr, body := doJSON(t, m, "POST", "/ingest", sparse(day, 8)); rr.Code != http.StatusOK {
			t.Fatalf("day %d ingest = %d %v", i, rr.Code, body)
		}
	}
	for i := 0; i < 3; i++ {
		openDay(i)
		if rr, body := doJSON(t, m, "POST", "/flush", ""); rr.Code != http.StatusOK || body["daysDone"] != float64(i+1) {
			t.Fatalf("day %d flush = %d %v, want 200 and %d days done", i, rr.Code, body, i+1)
		}
	}
	rr, body := doJSON(t, m, "GET", "/stats", "")
	if rr.Code != http.StatusOK || body["daysDone"] != float64(3) {
		t.Fatalf("stats = %d %v, want 3 days done", rr.Code, body)
	}
	if _, ok := body["closeFailed"]; ok {
		t.Fatalf("stats names a failed close: %v", body)
	}
	// A fourth day stays open across the shutdown.
	openDay(3)
	if err := d.shutdown(); err != nil {
		t.Fatalf("shutdown checkpoint: %v", err)
	}
	// No close runs after shutdown, so the pipeline can be read.
	cal := d.eng.Pipeline().ExportCalibration()
	if cal.Trained || cal.CalDays != 3 {
		t.Fatalf("calibration = %+v, want 3 starved days", cal)
	}

	back := testDaemon(t, daemonOpts{checkpoint: path})
	if got := back.eng.Pipeline().ExportCalibration(); !reflect.DeepEqual(got, cal) {
		t.Fatalf("restored calibration %+v, want %+v", got, cal)
	}
	if st := back.eng.Stats(); st.DaysDone != 3 || st.Day != "2014-03-04" || st.DayRecords != 8 {
		t.Fatalf("restored daemon: %d days done, open day %q with %d records; want 3, 2014-03-04, 8",
			st.DaysDone, st.Day, st.DayRecords)
	}
}

// TestHTTPReportDuringDayClose: a report requested for a day whose close
// still runs in the background is coming, not missing — 202 with a
// Retry-After hint, and 200 with the report once the close lands. The
// daemon keeps ingesting the new day the whole time.
func TestHTTPReportDuringDayClose(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{
		Shards: 2, TrainingDays: 1 << 30,
		CloseHook: func(string) { started <- struct{}{}; <-release },
	}, pipe)
	t.Cleanup(func() { e.Close() })
	srv := newServer(e, "", 0, nil)
	m := srv.mux()

	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	doJSON(t, m, "POST", "/day", `{"date":"2014-03-01"}`)
	doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 12)))
	// Roll over via /day: swap-and-continue, the close parks in the hook.
	if rr, _ := doJSON(t, m, "POST", "/day", `{"date":"2014-03-02"}`); rr.Code != http.StatusOK {
		t.Fatalf("next day open = %d, want 200", rr.Code)
	}
	<-started

	rr, body := doJSON(t, m, "GET", "/report/2014-03-01", "")
	if rr.Code != http.StatusAccepted {
		t.Fatalf("report during close = %d %v, want 202", rr.Code, body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("202 without Retry-After")
	}
	// Ingestion into the new day is not blocked by the in-flight close.
	rr, body = doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day.AddDate(0, 0, 1), 5)))
	if rr.Code != http.StatusOK || body["ingested"] != float64(5) {
		t.Fatalf("ingest during close = %d %v", rr.Code, body)
	}
	// /stats surfaces the pending close without waiting for it.
	rr, body = doJSON(t, m, "GET", "/stats", "")
	if rr.Code != http.StatusOK || body["closing"] != "2014-03-01" {
		t.Fatalf("stats during close = %d %v; want closing=2014-03-01", rr.Code, body)
	}

	close(release)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// A training day still has no SOC report — but now it is a plain 404,
	// not a 202: the close is done.
	rr, _ = doJSON(t, m, "GET", "/report/2014-03-01", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("report after close = %d, want 404 (training day)", rr.Code)
	}
}

// TestWorkersFlagReachesPipeline: the -workers knob must land in the
// day-close pipeline configuration, on both engine construction paths —
// fresh start and checkpoint restore (where the running host's flag
// overrides the checkpointed value).
func TestWorkersFlagReachesPipeline(t *testing.T) {
	opts := daemonOpts{seed: 1, workers: 3}
	e, err := newEngine(opts, stream.Config{Shards: 1, TrainingDays: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Pipeline().Config().Workers; got != 3 {
		t.Fatalf("fresh engine pipeline Workers = %d, want 3", got)
	}

	// Checkpoint with Workers=3, restore with -workers 2: the restore
	// host's flag wins (reports are worker-count independent).
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	opts.checkpoint = path
	opts.workers = 2
	restored, err := newEngine(opts, stream.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Pipeline().Config().Workers; got != 2 {
		t.Fatalf("restored engine pipeline Workers = %d, want the flag override 2", got)
	}
}

// TestRunFailsOnCorruptCheckpoint: daemon startup against an empty or
// corrupt checkpoint must stop with a descriptive error instead of
// starting fresh (which would overwrite the history on the next write).
func TestRunFailsOnCorruptCheckpoint(t *testing.T) {
	parentClosing, err := os.ReadFile("../../internal/stream/testdata/closing-day-pr21.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ content, want string }{
		"empty":   {"", "restore checkpoint"},
		"corrupt": {"garbage, not a checkpoint\n", "restore checkpoint"},
		// A format the daemon no longer reads must say which build does.
		"v1": {`{"version":1,"dailies":0,"items":0}` + "\n",
			"unsupported checkpoint version 1 (format v1 was last readable at PR 13; restore and re-checkpoint with that build)"},
		// The PR 21 build's checkpoint of a day mid-close, as captured in
		// internal/stream's testdata.
		"parentClosingDay": {string(parentClosing),
			"checkpoint was taken while day 2014-02-03's close was in flight (closing-day sections were last readable at PR 24; restore with a build up to PR 24, let the close finish, and re-checkpoint)"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "reprod.ckpt")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run(daemonOpts{addr: "127.0.0.1:0", shards: 1, seed: 1, checkpoint: path})
			if err == nil {
				t.Fatal("run accepted a corrupt checkpoint")
			}
			if !strings.Contains(err.Error(), "restore checkpoint") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not point at the checkpoint with %q", err, tc.want)
			}
		})
	}
}

// capSink collects delivered alert events for the HTTP-layer tests.
type capSink struct{ ch chan alert.Event }

func (s *capSink) Send(ev alert.Event) error { s.ch <- ev; return nil }

// wedgedSink never returns from Send — the dead-sink case the ingest
// benchmarks guard against.
type wedgedSink struct{ block chan struct{} }

func (s *wedgedSink) Send(alert.Event) error { <-s.block; return nil }

func sampleDaily(date string) report.Daily {
	return report.Daily{
		Date: date,
		Domains: []report.Domain{{
			Domain: "c2.example.org", Reason: "c&c", Score: 0.9,
			BeaconPeriodSeconds: 300, Hosts: []string{"host-1"},
		}},
	}
}

// TestHTTPPreview: GET /preview computes a fresh provisional report for the
// open day, 409s with no day open, and 503s on a shut-down daemon.
func TestHTTPPreview(t *testing.T) {
	srv, eng := testServer(t, "")
	m := srv.mux()
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	rr, _ := doJSON(t, m, "GET", "/preview", "")
	if rr.Code != http.StatusConflict {
		t.Fatalf("preview without day = %d, want 409", rr.Code)
	}

	doJSON(t, m, "POST", "/day", `{"date":"2014-03-01"}`)
	doJSON(t, m, "POST", "/ingest", proxyTSV(t, testRecords(day, 40)))
	rr, body := doJSON(t, m, "GET", "/preview", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("preview = %d %v", rr.Code, body)
	}
	if body["date"] != "2014-03-01" || body["records"] != float64(40) {
		t.Fatalf("preview body = %v", body)
	}
	if body["calibrating"] != true { // train-only engine: models never fit
		t.Fatalf("preview of an untrained pipeline must be calibrating: %v", body)
	}
	// The preview is visible in /stats without perturbing the day.
	rr, body = doJSON(t, m, "GET", "/stats", "")
	if rr.Code != http.StatusOK || body["dayRecords"] != float64(40) {
		t.Fatalf("stats after preview = %d %v", rr.Code, body)
	}

	eng.Close()
	rr, _ = doJSON(t, m, "GET", "/preview", "")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("preview on closed engine = %d, want 503", rr.Code)
	}
}

// TestHTTPAlertStats: /alerts/stats reports "alerting off" plainly, and with
// a dispatcher wired in it (and /stats) carry the delivery counters.
func TestHTTPAlertStats(t *testing.T) {
	srv, _ := testServer(t, "")
	rr, body := doJSON(t, srv.mux(), "GET", "/alerts/stats", "")
	if rr.Code != http.StatusOK || body["enabled"] != false {
		t.Fatalf("alerts/stats without dispatcher = %d %v", rr.Code, body)
	}

	sink := &capSink{ch: make(chan alert.Event, 16)}
	d, err := alert.NewDispatcher(alert.Config{QueueSize: 16, SuppressMinutes: -1},
		map[string]alert.Sink{"cap": sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 1, TrainingDays: 1 << 30}, pipe)
	t.Cleanup(func() { e.Close() })
	asrv := newServer(e, "", 0, d)
	m := asrv.mux()

	asrv.publishDaily(sampleDaily("2014-03-01"), alert.KindConfirmed)
	ev := <-sink.ch
	if ev.Kind != alert.KindConfirmed || ev.Domain != "c2.example.org" || ev.Severity != alert.SevCritical {
		t.Fatalf("delivered event %+v", ev)
	}

	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Sent < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	rr, body = doJSON(t, m, "GET", "/alerts/stats", "")
	if rr.Code != http.StatusOK || body["enabled"] != true ||
		body["published"] != float64(1) || body["sent"] != float64(1) {
		t.Fatalf("alerts/stats = %d %v", rr.Code, body)
	}
	sinks, _ := body["sinks"].([]any)
	if len(sinks) != 1 {
		t.Fatalf("sinks = %v", body["sinks"])
	}
	rr, body = doJSON(t, m, "GET", "/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats = %d", rr.Code)
	}
	if alerts, _ := body["alerts"].(map[string]any); alerts == nil || alerts["sent"] != float64(1) {
		t.Fatalf("stats alerts section = %v", body["alerts"])
	}
}

// TestPreviewLoopStopsOnEngineClose: the -preview-interval loop must notice
// engine shutdown through the preview error and exit rather than tick
// forever — its exit proves the loop was live (only a tick after Close can
// observe ErrClosed).
func TestPreviewLoopStopsOnEngineClose(t *testing.T) {
	srv, eng := testServer(t, "")
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := eng.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(testRecords(day, 20)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.runPreviewLoop(time.Millisecond, nil)
	}()
	time.Sleep(5 * time.Millisecond) // let it preview the open day a few times
	eng.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("preview loop did not stop after engine close")
	}
}

// benchIngest drives the engine's batch-ingest path with an optional alert
// dispatcher wired into the server, publishing one (suppression-exempt)
// report per batch — the shape of a daemon alerting mid-ingest.
func benchIngest(b *testing.B, alerts *alert.Dispatcher) {
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	e := stream.New(stream.Config{Shards: 4, TrainingDays: 1 << 30}, pipe)
	defer e.Close()
	srv := newServer(e, "", 0, alerts)
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := e.BeginDay(day, nil); err != nil {
		b.Fatal(err)
	}
	recs := testRecords(day, 512)
	daily := sampleDaily("2014-03-01")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.IngestBatch(recs); err != nil {
			b.Fatal(err)
		}
		srv.publishDaily(daily, alert.KindProvisional)
	}
	b.SetBytes(512)
}

// BenchmarkIngestNoAlerts is the baseline for BenchmarkIngestBlockedSink:
// the two must not differ measurably — a permanently wedged sink with a
// full queue costs the ingest path a counter bump, never a stall.
func BenchmarkIngestNoAlerts(b *testing.B) {
	benchIngest(b, nil)
}

func BenchmarkIngestBlockedSink(b *testing.B) {
	sink := &wedgedSink{block: make(chan struct{})}
	d, err := alert.NewDispatcher(
		alert.Config{QueueSize: 2, SuppressMinutes: -1, CloseTimeoutMillis: 50},
		map[string]alert.Sink{"dead": sink})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		d.Close()
		close(sink.block)
	}()
	// Wedge the sink and fill its queue so every bench-loop publish is the
	// worst case: overflow against a dead sink.
	for i := 0; i < 4; i++ {
		d.Publish(alert.HealthEvent(alert.SevInfo, time.Now(), "prime"))
	}
	benchIngest(b, d)
}

// testDaemon builds and starts a full daemon on ephemeral ports, with the
// engine defaults the HTTP tests use. Tests that shut it down themselves
// are fine: shutdown is idempotent.
func testDaemon(t *testing.T, o daemonOpts) *daemon {
	t.Helper()
	if o.addr == "" {
		o.addr = "127.0.0.1:0"
	}
	if o.shards == 0 {
		o.shards = 2
	}
	if o.training == 0 {
		o.training = 1 << 30
	}
	o.seed = 1
	d, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	d.start()
	t.Cleanup(func() { _ = d.shutdown() })
	return d
}

// restoreCheckpointRecords restores a checkpoint file, flushes the open
// day, and returns that day's record count.
func restoreCheckpointRecords(t *testing.T, path, date string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := stream.Restore(f, stream.Config{Shards: 2, TrainingDays: 1 << 30},
		stream.RestoreDeps{Whois: whois.NewRegistry()})
	if err != nil {
		t.Fatalf("shutdown checkpoint does not restore: %v", err)
	}
	defer restored.Close()
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := restored.DayReport(date)
	if !ok {
		t.Fatalf("restored checkpoint has no day %s", date)
	}
	return rep.Stats.Records
}

// TestShutdownPreservesAckedRecords is the regression test for the
// shutdown data-loss bug: the old path checkpointed first and then
// hard-closed the HTTP server, so a batch acknowledged with 200 between
// those two steps vanished. Now acknowledgment-before-checkpoint is the
// invariant: hammer /ingest from several connections, shut down mid-storm,
// and every record a 200 acknowledged must be in the final checkpoint.
func TestShutdownPreservesAckedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	d := testDaemon(t, daemonOpts{checkpoint: path})
	base := "http://" + d.httpLn.Addr().String()

	resp, err := http.Post(base+"/day", "application/json", strings.NewReader(`{"date":"2014-03-01"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("day open = %d", resp.StatusCode)
	}

	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	const perBatch = 5
	body := proxyTSV(t, testRecords(day, perBatch))
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(base+"/ingest", "text/tab-separated-values", strings.NewReader(body))
				if err != nil {
					return // server gone: shutdown finished closing the socket
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return // 503 during shutdown, or hard refusal
				}
				acked.Add(perBatch)
			}
		}()
	}

	// Shut down only once the storm is actually landing acks, so the
	// shutdown races real in-flight requests.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 3*perBatch {
		if time.Now().After(deadline) {
			t.Fatal("ingest hammer never got going")
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	got := restoreCheckpointRecords(t, path, "2014-03-01")
	if int64(got) < acked.Load() {
		t.Fatalf("shutdown lost acknowledged records: %d acked with 200, checkpoint has %d", acked.Load(), got)
	}
}

// TestShutdownWaitsOutSlowDayClose is the regression test for a shutdown
// panic: awaitCloseDrained used to give up after shutdownGrace and close
// rolledOver under a close still in flight, whose OnReport then sent on the
// closed channel. Shutdown now waits the close out, so a close stalled across
// the start of shutdown finishes, and the final checkpoint holds its daily,
// names no closing day, and restores.
func TestShutdownWaitsOutSlowDayClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	const stalled = "2014-03-02"
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	d := testDaemon(t, daemonOpts{checkpoint: path, training: 1, closeHook: func(date string) {
		if date == stalled {
			entered <- struct{}{}
			<-release
		}
	}})
	// Day 1 trains, day 2 is processed (its close stalls), day 3 stays open.
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := d.eng.BeginDay(day.AddDate(0, 0, i), nil); err != nil {
			t.Fatal(err)
		}
		if err := d.eng.IngestBatch(testRecords(day.AddDate(0, 0, i), 20)); err != nil {
			t.Fatal(err)
		}
	}
	<-entered

	done := make(chan error, 1)
	go func() { done <- d.shutdown() }()
	select {
	case err := <-done:
		close(release)
		t.Fatalf("shutdown returned (%v) with the day-close still stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(data, []byte("\n"))
	var hdr map[string]any
	if err := json.Unmarshal(header, &hdr); err != nil {
		t.Fatal(err)
	}
	if _, ok := hdr["closing"]; ok {
		t.Fatalf("final checkpoint names a closing day: %s", header)
	}
	restored, err := stream.Restore(bytes.NewReader(data), stream.Config{Shards: 2},
		stream.RestoreDeps{Whois: whois.NewRegistry()})
	if err != nil {
		t.Fatalf("final checkpoint does not restore: %v", err)
	}
	defer restored.Close()
	if _, ok := restored.Report(stalled); !ok {
		t.Fatalf("final checkpoint lacks the daily of %s, whose close shutdown waited out", stalled)
	}
	if st := restored.Stats(); st.DaysDone != 2 || st.Day != "2014-03-03" || st.DayRecords != 20 {
		t.Fatalf("restored engine: daysDone %d, open day %q with %d records; want 2, 2014-03-03, 20",
			st.DaysDone, st.Day, st.DayRecords)
	}
}

// writeReplayDay lays out one cmd/datagen-shaped day file pair for -replay.
func writeReplayDay(t *testing.T, dir string, day time.Time, n int) {
	t.Helper()
	date := day.Format("2006-01-02")
	f, err := os.Create(filepath.Join(dir, "proxy-"+date+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	w := logs.NewProxyWriter(f)
	for _, r := range testRecords(day, n) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownInterruptsReplayAndLoops is the regression test for the
// unstoppable-background-goroutines bug: the periodic checkpoint and preview
// loops used to get nil stop channels, and the replay had no stop at all.
// Day 1's close stalls, so the replay cannot get past opening day 3 until the
// test lets it; shutdown starts, and only then does the close go on. Shutdown
// must return with the hour-interval loops joined, the replay stopped with
// days left, and every record the replay handed the engine in the final
// checkpoint.
func TestShutdownInterruptsReplayAndLoops(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		writeReplayDay(t, dir, day.AddDate(0, 0, i), 50)
	}
	path := filepath.Join(t.TempDir(), "reprod.ckpt")
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	d := testDaemon(t, daemonOpts{
		checkpoint: path, ckptInterval: time.Hour, previewEvery: time.Hour,
		replay: dir,
		closeHook: func(date string) {
			if date == "2014-03-01" {
				entered <- struct{}{}
				<-release
			}
		},
	})

	<-entered // the replay has opened day 2; day 1's close holds back day 3
	done := make(chan error, 1)
	go func() { done <- d.shutdown() }()
	<-d.stop // shutdown has told the replay and the loops to stop
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// shutdown joined both groups before its checkpoint: these return at once.
	d.replayWG.Wait()
	d.loopWG.Wait()
	select {
	case err := <-d.errc:
		t.Fatalf("stopped replay surfaced as a failure: %v", err)
	default:
	}

	live := d.eng.Stats()
	if live.Day == "" || live.DaysDone >= 3 {
		t.Fatalf("replay ran to the end: open day %q, %d days done", live.Day, live.DaysDone)
	}
	if live.TotalRecords < 50 {
		t.Fatalf("replay handed the engine %d records, want at least day 1's 50", live.TotalRecords)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := stream.Restore(f, stream.Config{Shards: 2, TrainingDays: 1 << 30},
		stream.RestoreDeps{Whois: whois.NewRegistry()})
	if err != nil {
		t.Fatalf("shutdown checkpoint does not restore: %v", err)
	}
	defer restored.Close()
	if got := restored.Stats(); got.Day != live.Day || got.DayRecords != live.DayRecords ||
		got.TotalRecords != live.TotalRecords || got.DaysDone != live.DaysDone {
		t.Fatalf("checkpoint holds day %q with %d records, %d in all, %d days done; the replay left day %q with %d, %d in all, %d days done",
			got.Day, got.DayRecords, got.TotalRecords, got.DaysDone, live.Day, live.DayRecords, live.TotalRecords, live.DaysDone)
	}
}

// TestListenerWiredIntoDaemon drives each proxy listener of a whole daemon
// over one TCP connection: 5,000 records in writes of 250, newline-framed
// for -listen-tcp and as octet-counted RFC 5424 frames for -listen-syslog.
// At this rate nothing may be shed, rejected or malformed; the number sent,
// the listener's records and the engine's dayRecords must agree in /stats,
// next to the memory section; and the checkpoint written at shutdown must
// hold every record.
func TestListenerWiredIntoDaemon(t *testing.T) {
	const sent, perWrite = 5000, 250
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := testRecords(day, sent)
	for i := range recs {
		recs[i].Time = day.Add(time.Duration(i) * time.Second) // all inside the day
	}
	for _, tc := range []struct {
		name  string
		opts  daemonOpts
		frame func(dst []byte, r logs.ProxyRecord) []byte
	}{
		{"tcp", daemonOpts{listenTCP: "127.0.0.1:0"}, logs.AppendProxy},
		{"syslog", daemonOpts{listenSyslog: "127.0.0.1:0"}, func(dst []byte, r logs.ProxyRecord) []byte {
			msg := logs.AppendProxy([]byte("<134>1 - proxy reprod - - - "), r)
			msg = msg[:len(msg)-1] // the octet count replaces the newline
			dst = strconv.AppendInt(dst, int64(len(msg)), 10)
			return append(append(dst, ' '), msg...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "reprod.ckpt")
			tc.opts.checkpoint = path
			d := testDaemon(t, tc.opts)
			base := "http://" + d.httpLn.Addr().String()

			resp, err := http.Post(base+"/day", "application/json", strings.NewReader(`{"date":"2014-03-01"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			conn, err := net.Dial("tcp", d.inputs[0].Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			for i := 0; i < sent; i += perWrite {
				buf = buf[:0]
				for _, r := range recs[i : i+perWrite] {
					buf = tc.frame(buf, r)
				}
				if _, err := conn.Write(buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.Close(); err != nil {
				t.Fatal(err)
			}

			// The listener delivers asynchronously; poll /stats for the counters.
			var body, in map[string]any
			deadline := time.Now().Add(10 * time.Second)
			for {
				r, err := http.Get(base + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				body = map[string]any{}
				if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
					t.Fatal(err)
				}
				r.Body.Close()
				ins, _ := body["inputs"].([]any)
				if len(ins) != 1 {
					t.Fatalf("stats inputs = %v, want one listener", body["inputs"])
				}
				in, _ = ins[0].(map[string]any)
				if in["sheddedRecords"] != float64(0) || in["rejectedRecords"] != float64(0) || in["malformedFrames"] != float64(0) {
					t.Fatalf("lossless run lost records: listener stats %v", in)
				}
				if in["records"] == float64(sent) && body["dayRecords"] == float64(sent) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sent %d records; listener delivered %v, engine holds %v", sent, in["records"], body["dayRecords"])
				}
				time.Sleep(2 * time.Millisecond)
			}
			if in["name"] != tc.name || in["connsAccepted"] != float64(1) {
				t.Fatalf("listener stats = %v", in)
			}
			if mem, _ := body["memory"].(map[string]any); mem == nil || mem["heapSysBytes"] == float64(0) {
				t.Fatalf("stats memory section = %v", body["memory"])
			}

			if err := d.shutdown(); err != nil {
				t.Fatal(err)
			}
			if got := restoreCheckpointRecords(t, path, "2014-03-01"); got != sent {
				t.Fatalf("checkpoint after %s ingest has %d records, want %d", tc.name, got, sent)
			}
		})
	}
}

// TestPprofOnlyOnItsOwnListener: -pprof serves net/http/pprof on the address
// it names and nowhere else — the API address answers 404 for
// /debug/pprof/ whether or not the flag is set (importing net/http/pprof
// registers on http.DefaultServeMux, which the daemon must never serve).
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, addr := range []string{"", "127.0.0.1:0"} {
		d := testDaemon(t, daemonOpts{pprofAddr: addr})
		if got := status("http://" + d.httpLn.Addr().String() + "/debug/pprof/"); got != http.StatusNotFound {
			t.Errorf("-pprof %q: GET /debug/pprof/ on the API address = %d, want 404", addr, got)
		}
		if addr == "" {
			if d.pprofLn != nil {
				t.Error("a pprof listener exists without -pprof")
			}
			continue
		}
		if got := status("http://" + d.pprofLn.Addr().String() + "/debug/pprof/"); got != http.StatusOK {
			t.Errorf("GET /debug/pprof/ on the -pprof address = %d, want 200", got)
		}
		if err := d.shutdown(); err != nil {
			t.Fatal(err)
		}
		if _, err := http.Get("http://" + d.pprofLn.Addr().String() + "/debug/pprof/"); err == nil {
			t.Error("the pprof listener outlived shutdown")
		}
	}
}

// TestReadMemStats pins the /stats memory section read from runtime/metrics:
// every field is populated, heapSysBytes is runtime.MemStats.HeapSys read a
// moment apart (within 10 %: the heap may grow in between), and numGC never
// goes back — it counts the collection forced between two reads.
func TestReadMemStats(t *testing.T) {
	first := readMemStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if first.HeapAllocBytes == 0 || first.HeapSysBytes < first.HeapAllocBytes {
		t.Fatalf("memory section %+v: heapAllocBytes unset or above heapSysBytes", first)
	}
	if d := max(first.HeapSysBytes, ms.HeapSys) - min(first.HeapSysBytes, ms.HeapSys); d > ms.HeapSys/10 {
		t.Errorf("heapSysBytes %d, runtime.MemStats.HeapSys %d", first.HeapSysBytes, ms.HeapSys)
	}
	runtime.GC()
	second := readMemStats()
	if second.NumGC <= first.NumGC || second.NumGC < ms.NumGC+1 {
		t.Fatalf("numGC %d after a forced collection, %d before it (runtime.MemStats.NumGC %d in between)", second.NumGC, first.NumGC, ms.NumGC)
	}
}
