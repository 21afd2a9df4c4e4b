package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// httpConn is an HTTP client pinned to one keep-alive connection, so the
// driver holds at most two connections to the daemon: one for data, one
// for control.
type httpConn struct {
	base string
	hc   *http.Client
}

func newHTTPConn(addr string) *httpConn {
	return &httpConn{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

func (c *httpConn) close() { c.hc.CloseIdleConnections() }

// do runs one request and returns its status and body.
func (c *httpConn) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// must is do for calls where anything but 200 is a failure of the run.
func (c *httpConn) must(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	status, b, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	return b, nil
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	DayRecords              uint64 `json:"dayRecords"`
	TotalRecords            uint64 `json:"totalRecords"`
	DaysDone                int    `json:"daysDone"`
	LastRolloverPauseMicros int64  `json:"lastRolloverPauseMicros"`
	LastDayCloseMillis      int64  `json:"lastDayCloseMillis"`
	LastCheckpointBytes     int64  `json:"lastCheckpointBytes"`
	Shards                  []struct {
		LiveDomains     int    `json:"liveDomains"`
		HistCacheHits   uint64 `json:"histCacheHits"`
		HistCacheMisses uint64 `json:"histCacheMisses"`
	} `json:"shards"`
	Inputs []struct {
		Name            string `json:"name"`
		ReadBytes       int64  `json:"readBytes"`
		Records         int64  `json:"records"`
		SheddedRecords  int64  `json:"sheddedRecords"`
		RejectedRecords int64  `json:"rejectedRecords"`
		MalformedFrames int64  `json:"malformedFrames"`
	} `json:"inputs"`
}

func (c *httpConn) stats(ctx context.Context) (daemonStats, time.Duration, error) {
	var st daemonStats
	start := time.Now()
	b, err := c.must(ctx, http.MethodGet, "/stats", nil)
	took := time.Since(start)
	if err != nil {
		return st, took, err
	}
	return st, took, json.Unmarshal(b, &st)
}

// pollInterval is how often the driver re-asks while it waits on the
// daemon: for a report after a rollover, for the listener to drain. The
// first eagerPolls re-asks of a wait come eagerPollInterval apart, so that a
// wait of a few milliseconds is not measured in whole milliseconds.
const (
	pollInterval      = time.Millisecond
	eagerPollInterval = 200 * time.Microsecond
	eagerPolls        = 25
)

// awaitReport polls GET /report/DATE until it answers 200 and returns the
// body.
func (c *httpConn) awaitReport(ctx context.Context, date string) ([]byte, error) {
	for polls := 0; ; polls++ {
		status, b, err := c.do(ctx, http.MethodGet, "/report/"+date, nil)
		if err != nil {
			return nil, fmt.Errorf("GET /report/%s: %w", date, err)
		}
		if status == http.StatusOK {
			return b, nil
		}
		wait := pollInterval
		if polls < eagerPolls {
			wait = eagerPollInterval
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, fmt.Errorf("waiting for report %s (last status %d): %w", date, status, err)
		}
	}
}

// awaitHealthy polls GET /healthz until the daemon answers.
func (c *httpConn) awaitHealthy(ctx context.Context) error {
	for {
		if status, _, err := c.do(ctx, http.MethodGet, "/healthz", nil); err == nil && status == http.StatusOK {
			return nil
		}
		if err := sleepCtx(ctx, pollInterval); err != nil {
			return fmt.Errorf("waiting for /healthz: %w", err)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// dayBody is the POST /day request for a day.
func dayBody(d *dayData) []byte {
	b, err := json.Marshal(struct {
		Date   string            `json:"date"`
		Leases map[string]string `json:"leases"`
	}{d.date, d.leases})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return b
}

// pacer is an open-loop schedule: batch i is due at start + i*interval and
// is timed from that instant whether or not the sender got to it on time,
// so a stalled daemon shows up as lateness on every batch it delayed
// instead of vanishing. A zero interval means "as fast as the peer
// accepts": nothing is ever due later than now.
type pacer struct {
	start    time.Time
	interval time.Duration
	i        int
}

func newPacer(recordsPerBatch int, recPerSec float64) *pacer {
	p := &pacer{start: time.Now()}
	if recPerSec > 0 {
		p.interval = batchInterval(recordsPerBatch, recPerSec)
	}
	return p
}

// batchInterval is how long `records` records last at recPerSec.
func batchInterval(records int, recPerSec float64) time.Duration {
	return time.Duration(float64(records) / recPerSec * float64(time.Second))
}

// next waits until the next batch is due (not at all when it is already
// late) and returns the instant it was due.
func (p *pacer) next(ctx context.Context) (time.Time, error) {
	if p.interval == 0 {
		return time.Now(), nil
	}
	due := p.start.Add(time.Duration(p.i) * p.interval)
	p.i++
	if wait := time.Until(due); wait > 0 {
		if err := sleepCtx(ctx, wait); err != nil {
			return due, err
		}
	}
	return due, nil
}

// tcpBatchRecords is the write granularity on the framed TCP connection,
// and the listener's own hand-off size.
const tcpBatchRecords = 512

// sendTCP writes records [from, to) of a day to the newline-framed listener
// in tcpBatchRecords batches on the pacer's schedule and returns, per
// batch, how long after its due time the write completed.
func sendTCP(ctx context.Context, conn net.Conn, d *dayData, from, to int, recPerSec float64) ([]float64, error) {
	p := newPacer(tcpBatchRecords, recPerSec)
	var late []float64
	for i := from; i < to; i += tcpBatchRecords {
		due, err := p.next(ctx)
		if err != nil {
			return late, err
		}
		if _, err := conn.Write(d.slice(i, min(i+tcpBatchRecords, to))); err != nil {
			return late, fmt.Errorf("tcp write: %w", err)
		}
		if recPerSec > 0 {
			late = append(late, ms(time.Since(due)))
		}
	}
	return late, nil
}
