package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/inputs"
	"repro/internal/logs"
	"repro/internal/report"
	"repro/internal/stream"
)

// defaultMaxIngestBytes caps one /ingest body (32 MiB ≈ 200k TSV records):
// big enough for any sane batch, small enough that a runaway POST cannot
// buffer the daemon out of memory.
const defaultMaxIngestBytes = 32 << 20

// server wraps the engine with the daemon's HTTP API. Handlers are thin:
// all synchronization lives in the engine, except the checkpoint file
// write, which the server serializes itself.
type server struct {
	eng       *stream.Engine
	ckptPath  string
	maxIngest int64
	ckptMu    sync.Mutex
	// alerts is the outbound alert dispatcher (nil: alerting off). Publish
	// never blocks, so handlers and engine callbacks call it freely.
	alerts *alert.Dispatcher
	// inputs are the live TCP/syslog/netflow listeners, surfaced in /stats.
	// Set once before the HTTP server starts; read-only afterwards.
	inputs []*inputs.Listener
}

func newServer(e *stream.Engine, ckptPath string, maxIngest int64, alerts *alert.Dispatcher) *server {
	if maxIngest <= 0 {
		maxIngest = defaultMaxIngestBytes
	}
	return &server{eng: e, ckptPath: ckptPath, maxIngest: maxIngest, alerts: alerts}
}

// publishDaily fans a day's SOC report out as alert events (no-op with
// alerting off).
func (s *server) publishDaily(daily report.Daily, kind alert.EventKind) {
	if s.alerts == nil {
		return
	}
	for _, ev := range alert.EventsFromDaily(daily, kind, time.Now()) {
		s.alerts.Publish(ev)
	}
}

// bodyLimitTripped reports whether a MaxBytesReader has hit its cap: once
// tripped, every further read returns *http.MaxBytesError. (The batch is
// being rejected either way, so consuming one byte is harmless.)
func bodyLimitTripped(body io.Reader) bool {
	var one [1]byte
	_, err := body.Read(one[:])
	return errors.As(err, new(*http.MaxBytesError))
}

// engineErrStatus maps engine errors onto the API's status contract: a
// closed engine means the daemon is shutting down (503, retryable
// elsewhere); anything else — no open day — is a conflict the client can
// resolve by opening one (409).
func engineErrStatus(err error) int {
	if errors.Is(err, stream.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusConflict
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /stats", s.handleStats)
	m.HandleFunc("GET /preview", s.handlePreview)
	m.HandleFunc("GET /alerts/stats", s.handleAlertStats)
	m.HandleFunc("GET /reports", s.handleReports)
	m.HandleFunc("GET /report/{date}", s.handleReport)
	m.HandleFunc("POST /day", s.handleDay)
	m.HandleFunc("POST /ingest", s.handleIngest)
	m.HandleFunc("POST /flush", s.handleFlush)
	m.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	return m
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "daysDone": s.eng.DaysDone()})
}

// memStats is the /stats memory section: enough to watch the daemon's
// footprint during a soak without shelling into the host.
type memStats struct {
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapSysBytes   uint64 `json:"heapSysBytes"`
	NumGC          uint32 `json:"numGC"`
}

// memMetrics are the runtime/metrics samples readMemStats reads: the heap's
// object bytes (runtime.MemStats.HeapAlloc), the four classes whose sum is
// MemStats.HeapSys (objects, unused, free and released heap memory), and the
// completed GC cycles (MemStats.NumGC).
var memMetrics = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readMemStats fills the memory section from runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world, so a /stats poll pauses no
// listener connection or shard worker.
func readMemStats() memStats {
	var samples [len(memMetrics)]metrics.Sample
	for i, name := range memMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var v [len(memMetrics)]uint64
	for i := range samples {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			v[i] = samples[i].Value.Uint64()
		}
	}
	return memStats{HeapAllocBytes: v[0], HeapSysBytes: v[0] + v[1] + v[2] + v[3], NumGC: uint32(v[4])}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, live := s.eng.Snapshot(25)
	var alerts *alert.Stats
	if s.alerts != nil {
		a := s.alerts.Stats()
		alerts = &a
	}
	var inStats []inputs.Stats
	for _, l := range s.inputs {
		inStats = append(inStats, l.Stats())
	}
	writeJSON(w, http.StatusOK, struct {
		stream.Stats
		LiveAutomated []stream.LivePair `json:"liveAutomated,omitempty"`
		Alerts        *alert.Stats      `json:"alerts,omitempty"`
		Inputs        []inputs.Stats    `json:"inputs,omitempty"`
		Memory        memStats          `json:"memory"`
	}{st, live, alerts, inStats, readMemStats()})
}

// handlePreview computes a fresh mid-day detection preview: the report a
// rollover at this instant would publish, without closing anything. The
// call freezes ingestion only while the shard builders are cloned.
func (s *server) handlePreview(w http.ResponseWriter, _ *http.Request) {
	pr, err := s.eng.Preview(0)
	if err != nil {
		writeErr(w, engineErrStatus(err), "preview: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, pr)
}

func (s *server) handleAlertStats(w http.ResponseWriter, _ *http.Request) {
	if s.alerts == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled bool `json:"enabled"`
		alert.Stats
	}{true, s.alerts.Stats()})
}

func (s *server) handleReports(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"dates": s.eng.Dates()})
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	date := r.PathValue("date")
	if _, err := time.Parse("2006-01-02", date); err != nil {
		writeErr(w, http.StatusBadRequest, "bad date %q: want YYYY-MM-DD", date)
		return
	}
	// TryReport decides under one engine-lock acquisition, so a rollover
	// racing this request cannot slip between a pending-check and the
	// read. A day whose close still runs in the background is coming, not
	// missing: answer 202 with a retry hint instead of blocking the
	// request on the pipeline (engine Report would wait) or lying with 404.
	daily, ok, pending := s.eng.TryReport(date)
	if pending {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, map[string]string{
			"status": "day-close in flight", "date": date,
		})
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no report for %s (training day, unknown day, or day still open)", date)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = daily.WriteJSON(w)
}

// dayRequest opens an ingestion day; the lease map is the same shape the
// on-disk leases-YYYY-MM-DD.json files carry.
type dayRequest struct {
	Date   string            `json:"date"`
	Leases map[string]string `json:"leases,omitempty"`
}

func (s *server) handleDay(w http.ResponseWriter, r *http.Request) {
	// The lease map is outside input like an ingest body, under the same cap.
	var req dayRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxIngest))
	if err := dec.Decode(&req); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeErr(w, http.StatusRequestEntityTooLarge, "rejected day: body exceeds %d bytes", s.maxIngest)
			return
		}
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "decode: content after the JSON object")
		return
	}
	day, err := time.Parse("2006-01-02", req.Date)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad date %q: want YYYY-MM-DD", req.Date)
		return
	}
	var leases map[netip.Addr]string
	if len(req.Leases) > 0 {
		leases = make(map[netip.Addr]string, len(req.Leases))
		for ip, host := range req.Leases {
			addr, err := netip.ParseAddr(ip)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad lease address %q", ip)
				return
			}
			leases[addr] = host
		}
	}
	if err := s.eng.BeginDay(day, leases); err != nil {
		writeErr(w, engineErrStatus(err), "begin day: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"day": req.Date})
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Backpressure is decided per batch, before any body is consumed, so
	// a lagging engine sheds whole requests and the sender's retry
	// replays a clean batch boundary.
	if s.eng.Lagging() {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "shards lagging, retry later")
		return
	}
	// Cap the body before consuming any of it: an oversized POST must die
	// with 413, not buffer the daemon toward OOM.
	body := http.MaxBytesReader(w, r.Body, s.maxIngest)
	// Size the record buffer from Content-Length (clamped to the body cap,
	// since a hostile length header must not drive allocation past it).
	// Chunked requests advertise no length and start from the pooled
	// buffer's existing capacity.
	var sizeHint int64
	if n := r.ContentLength; n > 0 {
		sizeHint = min(n, s.maxIngest)
	}
	// Parse the whole batch before ingesting any of it: a malformed line
	// must reject the request with zero records accepted, or the sender's
	// corrected retry would double-ingest the valid prefix. The decoder and
	// record buffer come from pools, so steady-state ingest reuses one warm
	// interning table and one buffer across requests.
	dec := logs.GetProxyDecoder()
	recs, err := logs.ReadProxyBatch(body, dec, logs.GetProxyBuf(int(sizeHint/logs.ApproxProxyLineBytes)))
	logs.PutProxyDecoder(dec)
	if err != nil {
		logs.PutProxyBuf(recs)
		// A tripped limit usually surfaces as a parse error on the line the
		// cap truncated, so ask the reader, not just the error chain.
		if errors.As(err, new(*http.MaxBytesError)) || bodyLimitTripped(body) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"rejected whole batch: body exceeds %d bytes; split the batch", s.maxIngest)
			return
		}
		writeErr(w, http.StatusBadRequest, "rejected whole batch: %v", err)
		return
	}
	// One engine call accepts the parsed batch atomically: the lock is
	// taken once, the batch's sequence range is reserved, and an error (no
	// open day, daemon shutting down) means none of it was accepted, so the
	// sender's retry replays a clean batch boundary. The 200 goes out as
	// soon as the batch is accepted: its records are in the open day, after
	// every batch acked before it, and every later /stats, /day, /flush,
	// /checkpoint, /preview or shutdown sees them. Routing finishes on the
	// engine's goroutine, which hands the record buffer back to the pool
	// once the records are reduced, so the next body decodes meanwhile; the
	// engine's in-flight bound (AcceptBatch waits while 2 × Shards batches
	// are routing) is the only lead the handlers have on routing.
	n := len(recs)
	if err := s.eng.AcceptBatch(recs, func() { logs.PutProxyBuf(recs) }); err != nil {
		writeErr(w, engineErrStatus(err), "rejected whole batch: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"ingested": n})
}

func (s *server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if err := s.eng.Flush(); err != nil {
		// A close cannot fail, so the only error is a shut-down engine (503).
		writeErr(w, engineErrStatus(err), "flush: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"daysDone": s.eng.DaysDone()})
}

func (s *server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.ckptPath == "" {
		writeErr(w, http.StatusPreconditionFailed, "daemon started without -checkpoint")
		return
	}
	if err := s.writeCheckpoint(); err != nil {
		writeErr(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"checkpoint": s.ckptPath})
}

// writeCheckpoint atomically replaces the checkpoint file. Serialized:
// rollover-triggered, HTTP-triggered and shutdown checkpoints may race.
//
//lint:ignore locksafety ckptMu exists to serialize exactly this file I/O; it guards no ingest-path state and is never taken under an engine lock
func (s *server) writeCheckpoint() error {
	if s.ckptPath == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	tmp := s.ckptPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.eng.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// fsync before rename: without it a crash shortly after the rename can
	// publish a checkpoint whose bytes never left the page cache, and the
	// next start would trust a truncated file over the previous good one.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.ckptPath); err != nil {
		os.Remove(tmp)
		return err
	}
	// fsync the containing directory too: the rename itself is metadata,
	// and without this a crash can surface the new name pointing at a
	// zero-length (or missing) file — the startup refusal path would then
	// reject a checkpoint that was never durably published. Directory
	// fsync is advisory on some platforms; failure to open or sync is not
	// fatal once the data file itself is synced.
	if dir, err := os.Open(filepath.Dir(s.ckptPath)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// runPreviewLoop runs a detection preview every interval until stop closes
// (or the engine shuts down), publishing the provisional findings as alert
// events. A preview that fails for any reason other than "no day open"
// raises a health alert — the SOC should know its early-warning feed went
// dark. The loop drives /stats freshness too (lastPreviewMillis,
// previewCandidates); GET /preview remains on-demand and independent.
func (s *server) runPreviewLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			pr, err := s.eng.Preview(0)
			switch {
			case err == nil:
				if len(pr.Report.Domains) > 0 {
					log.Printf("preview %s: %d records in, %d provisional suspicious domains",
						pr.Date, pr.Records, len(pr.Report.Domains))
				}
				s.publishDaily(pr.Report, alert.KindProvisional)
			case errors.Is(err, stream.ErrClosed):
				return
			case errors.Is(err, stream.ErrNoDay):
				// Nothing to preview between days; not a failure.
			default:
				log.Printf("preview: %v", err)
				if s.alerts != nil {
					s.alerts.Publish(alert.HealthEvent(alert.SevWarning, time.Now(),
						fmt.Sprintf("detection preview failed: %v", err)))
				}
			}
		}
	}
}

// runPeriodicCheckpoints writes the checkpoint every interval until stop
// closes — the -checkpoint-interval auto-checkpoint loop, giving a daemon
// that sees long gaps between rollovers a bounded restart window. Write
// failures are logged and retried at the next tick; the engine shutting
// down ends the loop.
func (s *server) runPeriodicCheckpoints(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.writeCheckpoint(); err != nil {
				if errors.Is(err, stream.ErrClosed) {
					return
				}
				log.Printf("periodic checkpoint: %v", err)
			}
		}
	}
}
