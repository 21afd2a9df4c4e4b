package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix driven against a real reprod.
type workload struct {
	name  string
	shape shape
	// main drives the measured phase of one pass.
	main func(ctx context.Context, p *pass) error
	// paced marks a workload whose ingest runs on the pacer's clock.
	paced bool
	// passSeconds is what one pass takes on the reference box. A run makes
	// seconds/passSeconds passes: the count must not depend on how fast
	// this run happens to go, so that every run of a workload rests on the
	// same number of repeats per slot.
	passSeconds float64
}

var workloads = []workload{
	{name: "tcp_browse", shape: browse, main: mainTCPBrowse, passSeconds: 1.0},
	{name: "http_churn", shape: churn, main: mainHTTPChurn, passSeconds: 2.0},
	{name: "replay_churn", shape: churn, main: mainReplayChurn, passSeconds: 1.3},
	{name: "snapshot_churn", shape: churn, main: mainSnapshotChurn, paced: true, passSeconds: 3.0},
}

// minPasses is the fewest passes a comparable run makes.
const minPasses = 3

// passes is how many passes a run of the given length makes.
func (w *workload) passes(seconds float64) int {
	return max(minPasses, int(seconds/w.passSeconds))
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Open-loop rates. The ladder runs on the first measured day of tcp_browse.
// snapshotRate is a fraction of what the daemon sustains, so lateness there
// is the checkpoint's doing, and a day lasts long enough (about 1.1 s) for
// the control work at snapshotAt to finish inside it.
var (
	ladderRates = []float64{100_000, 200_000, 400_000}
	snapshotAt  = []float64{0.3, 0.65}
)

const (
	snapshotRate float64 = 60_000
	snapshotDays         = 2
	// ladderLateLimitMS is the median lateness a ladder step may show and
	// still count as sustained.
	ladderLateLimitMS = 50
	httpBodyRecords   = 2000
	retryAfter429     = 5 * time.Millisecond
	roundPreviews     = 3 // previews after each checkpoint of a control round
	snapshotRestarts  = 2 // restarts from snapshot_churn's final checkpoint
)

// harness is what every pass of a run shares.
type harness struct {
	bin    string // built reprod
	work   string // scratch directory, removed on exit
	logDir string // where reprod-<workload>.log is kept
	smoke  bool
}

// observations accumulates what the passes of one run saw.
type observations struct {
	passes   int
	slow     []float64 // the box's slowdown over each pass (see calib.go)
	sent     int64     // records sent
	failed   int64     // shed + rejected + never acknowledged + malformed frames
	problems []string

	// The end-to-end timings, one per slot of the pass protocol (day k's
	// ingest, rollover k's report, ...). ingestRecords is how many records
	// each ingest slot carries; it is the same in every pass.
	ingestMS, reportLat, checkpoint, preview, restoreMS series
	ingestRecords                                       []int

	late, ckptStall   []float64
	ladderOK          []float64
	httpIngest        []float64
	http429           int64
	dayPost, statsLat []float64
	driverCPU, cpu    time.Duration
	rssMB             float64

	inRecords, inShed, inRejected, inMalformed, inReadBytes int64
	rolloverPauseUS, closeMS, liveDomains, ckptMB           []float64
	histHits, histMisses                                    uint64
}

// noteIngest books one ingest slot: records accepted and how long they took.
func (o *observations) noteIngest(records int, took time.Duration) {
	if o.passes == 0 {
		o.ingestRecords = append(o.ingestRecords, records)
	}
	o.ingestMS.add(o.passes, ms(took))
}

func (o *observations) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// pass is one start-to-stop drive of the workload.
type pass struct {
	h   *harness
	w   *workload
	ds  *dataset
	obs *observations

	d    *daemon
	ctl  *httpConn
	ckpt string // this pass's own checkpoint file, if its daemon writes one

	tcpSent int64 // records written to the tcp listener of p.d

	poll chan polled // the in-flight report poller, if any
}

// polled is what a report poller hands back: the report, how long after
// the rollover request it was served, and /stats right after.
type polled struct {
	date  string
	body  []byte
	lat   time.Duration
	stats daemonStats
	took  time.Duration
	err   error
}

func (p *pass) logPath() string { return filepath.Join(p.h.logDir, "reprod-"+p.w.name+".log") }

// start execs a daemon for this pass and waits until it serves.
func (p *pass) start(ctx context.Context, extra ...string) error {
	d, err := startDaemon(ctx, p.h.bin, p.logPath(), extra...)
	if err != nil {
		return err
	}
	p.d, p.tcpSent = d, 0
	if err := d.await(ctx, d.listening, "the HTTP listener"); err != nil {
		return err
	}
	p.ctl = newHTTPConn(d.httpAddr)
	return p.ctl.awaitHealthy(ctx)
}

// stop shuts the pass's daemon down in order and books its CPU and memory.
func (p *pass) stop() error {
	if p.d == nil {
		return nil
	}
	p.ctl.close()
	u, err := p.d.stop()
	p.d = nil
	p.obs.cpu += u.cpu
	p.obs.rssMB = max(p.obs.rssMB, u.rssMB)
	return err
}

// abort is the failure path: no shutdown protocol, just make sure the
// child is gone.
func (p *pass) abort() {
	if p.d != nil {
		p.d.kill()
		p.d = nil
	}
}

// rollover opens day next — or flushes, after the last day — and starts
// polling for prev's report on the control connection while the caller goes
// on sending. Report latency runs from the rollover request to the first
// 200. The previous rollover's poller is joined first, so reports are
// awaited in order.
func (p *pass) rollover(ctx context.Context, prev, next *dayData) error {
	if err := p.joinPoll(); err != nil {
		return err
	}
	t0 := time.Now()
	var err error
	if next != nil {
		_, err = p.ctl.must(ctx, http.MethodPost, "/day", dayBody(next))
	} else {
		_, err = p.ctl.must(ctx, http.MethodPost, "/flush", nil)
	}
	if err != nil {
		return err
	}
	p.obs.dayPost = append(p.obs.dayPost, ms(time.Since(t0)))
	if prev == nil {
		return nil
	}
	p.poll = make(chan polled, 1)
	ctl := p.ctl
	go func() {
		r := polled{date: prev.date}
		r.body, r.err = ctl.awaitReport(ctx, prev.date)
		r.lat = time.Since(t0)
		if r.err == nil {
			r.stats, r.took, r.err = ctl.stats(ctx)
		}
		p.poll <- r
	}()
	return nil
}

// joinPoll waits for the in-flight report, checks it and books what the
// poller saw. Observations are only ever written by the goroutine that
// joins, never by the poller.
func (p *pass) joinPoll() error {
	if p.poll == nil {
		return nil
	}
	r := <-p.poll
	p.poll = nil
	if r.err != nil {
		return r.err
	}
	p.obs.reportLat.add(p.obs.passes, ms(r.lat))
	p.checkReport(r.date, r.body)
	p.observeClose(&r.stats, r.took)
	return nil
}

func (p *pass) checkReport(date string, body []byte) {
	if ref := p.ds.ref[date]; sha256.Sum256(body) != ref.sha {
		p.obs.problem("%s: report %s differs from the internal/batch reference", p.w.name, date)
	}
}

// observeClose books what /stats said right after a close finished.
func (p *pass) observeClose(st *daemonStats, took time.Duration) {
	o := p.obs
	o.statsLat = append(o.statsLat, ms(took))
	o.rolloverPauseUS = append(o.rolloverPauseUS, float64(st.LastRolloverPauseMicros))
	o.closeMS = append(o.closeMS, float64(st.LastDayCloseMillis))
	if st.LastCheckpointBytes > 0 {
		o.ckptMB = append(o.ckptMB, float64(st.LastCheckpointBytes)/(1<<20))
	}
}

// tcp is the tcp listener's counters in a /stats reply.
func (s *daemonStats) tcp() (records, shed, rejected, malformed, readBytes int64) {
	for _, in := range s.Inputs {
		if in.Name == "tcp" {
			return in.Records, in.SheddedRecords, in.RejectedRecords, in.MalformedFrames, in.ReadBytes
		}
	}
	return 0, 0, 0, 0, 0
}

func (s *daemonStats) liveDomains() int {
	n := 0
	for _, sh := range s.Shards {
		n += sh.LiveDomains
	}
	return n
}

// drainTCP waits until the tcp listener has settled every record written
// so far and returns the /stats reply that showed it. TCP carries no
// acknowledgment, so a day may only be rolled over once the listener has
// read it to the end.
func (p *pass) drainTCP(ctx context.Context) (daemonStats, error) {
	for {
		st, took, err := p.ctl.stats(ctx)
		if err != nil {
			return st, err
		}
		p.obs.statsLat = append(p.obs.statsLat, ms(took))
		records, shed, rejected, _, _ := st.tcp()
		if records+shed+rejected >= p.tcpSent {
			p.obs.liveDomains = append(p.obs.liveDomains, float64(st.liveDomains()))
			return st, nil
		}
		if err := sleepCtx(ctx, pollInterval); err != nil {
			return st, fmt.Errorf("draining the tcp listener (%d of %d records settled): %w", records+shed+rejected, p.tcpSent, err)
		}
	}
}

// settle closes the books on a daemon's ingest side once everything was
// sent: the listener counters must add up to what was written, and an open
// day must hold exactly the records that were acknowledged.
func (p *pass) settle(ctx context.Context, open *dayData) error {
	st, _, err := p.ctl.stats(ctx)
	if err != nil {
		return err
	}
	o := p.obs
	records, shed, rejected, malformed, readBytes := st.tcp()
	o.inRecords += records
	o.inShed += shed
	o.inRejected += rejected
	o.inMalformed += malformed
	o.inReadBytes += readBytes
	if lost := p.tcpSent - records - shed - rejected; lost != 0 {
		o.problem("%s: tcp listener settled %d records of %d written", p.w.name, p.tcpSent-lost, p.tcpSent)
		o.failed += max(lost, 0)
	}
	o.failed += shed + rejected + malformed
	for _, sh := range st.Shards {
		o.histHits += sh.HistCacheHits
		o.histMisses += sh.HistCacheMisses
	}
	if open != nil && shed+rejected == 0 && st.DayRecords != uint64(open.records()) {
		o.problem("%s: open day holds %d records, %d were acknowledged", p.w.name, st.DayRecords, open.records())
	}
	return nil
}

func (p *pass) measured() []dayData { return p.ds.days[warmDays:] }

// sendTCPRange writes records [from, to) of a day to the tcp listener at
// the given rate (0: unpaced), waits for the listener to drain them and
// returns the batches' lateness and the time from the first write to the
// drain.
func (p *pass) sendTCPRange(ctx context.Context, conn net.Conn, d *dayData, from, to int, rate float64) (late []float64, took time.Duration, st daemonStats, err error) {
	t0 := time.Now()
	late, err = sendTCP(ctx, conn, d, from, to, rate)
	p.tcpSent += int64(to - from)
	p.obs.sent += int64(to - from)
	if err != nil {
		return late, 0, st, err
	}
	st, err = p.drainTCP(ctx)
	return late, time.Since(t0), st, err
}

// startWarm execs a daemon that first replays the warm-up days and waits
// for that replay to finish.
func (p *pass) startWarm(ctx context.Context, extra ...string) error {
	if err := p.start(ctx, append([]string{"-replay", p.ds.warmDir}, extra...)...); err != nil {
		return err
	}
	return p.d.await(ctx, p.d.replayDone, "the warm-up replay")
}

// mainTCPBrowse: warm-up by replay, then nine days over one framed TCP
// connection. The first day is the open-loop ladder, a third of it at each
// of ladderRates; the other eight are written as fast as the socket takes
// them (TCP backpressure closes the loop), each timed from its first write
// to the listener having drained it.
func mainTCPBrowse(ctx context.Context, p *pass) error {
	if err := p.startWarm(ctx, "-listen-tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	conn, err := net.Dial("tcp", p.d.tcpAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	days := p.measured()
	var prev *dayData
	for i := range days {
		d := &days[i]
		if err := p.rollover(ctx, prev, d); err != nil {
			return err
		}
		if i == 0 {
			if err := p.ladder(ctx, conn, d); err != nil {
				return err
			}
		} else {
			_, took, _, err := p.sendTCPRange(ctx, conn, d, 0, d.records(), 0)
			if err != nil {
				return err
			}
			p.obs.noteIngest(d.records(), took)
		}
		prev = d
	}
	if err := p.rollover(ctx, prev, nil); err != nil {
		return err
	}
	if err := p.joinPoll(); err != nil {
		return err
	}
	return p.settle(ctx, nil)
}

// ladder sends a day in len(ladderRates) equal open-loop steps and books
// the highest rate that shed nothing and kept the generator's median
// lateness under ladderLateLimitMS.
func (p *pass) ladder(ctx context.Context, conn net.Conn, d *dayData) error {
	ok, shedSoFar := 0.0, int64(0)
	steps := len(ladderRates)
	for k, rate := range ladderRates {
		late, _, st, err := p.sendTCPRange(ctx, conn, d, k*d.records()/steps, (k+1)*d.records()/steps, rate)
		if err != nil {
			return err
		}
		p.obs.late = append(p.obs.late, late...)
		_, shed, _, _, _ := st.tcp()
		if shed == shedSoFar && median(late) < ladderLateLimitMS {
			ok = rate
		}
		shedSoFar = shed
	}
	p.obs.ladderOK = append(p.obs.ladderOK, ok)
	return nil
}

// postIngest sends one body, closed loop: a 429 is slept on and retried,
// anything else but 200 fails the run. It returns the records acknowledged
// and the round trip of the accepted attempt.
func (p *pass) postIngest(ctx context.Context, data *httpConn, body []byte) (int, time.Duration, error) {
	for {
		t0 := time.Now()
		status, resp, err := data.do(ctx, http.MethodPost, "/ingest", body)
		if err != nil {
			return 0, 0, fmt.Errorf("POST /ingest: %w", err)
		}
		switch status {
		case http.StatusOK:
			took := time.Since(t0)
			var ack struct {
				Ingested int `json:"ingested"`
			}
			if err := json.Unmarshal(resp, &ack); err != nil {
				return 0, 0, fmt.Errorf("POST /ingest: %w", err)
			}
			return ack.Ingested, took, nil
		case http.StatusTooManyRequests:
			p.obs.http429++
			if err := sleepCtx(ctx, retryAfter429); err != nil {
				return 0, 0, err
			}
		default:
			return 0, 0, fmt.Errorf("POST /ingest: status %d: %s", status, bytes.TrimSpace(resp))
		}
	}
}

// sendDayHTTP posts one day as httpBodyRecords-record bodies and returns
// each body's round trip.
func (p *pass) sendDayHTTP(ctx context.Context, data *httpConn, d *dayData) ([]float64, error) {
	acked := 0
	var trips []float64
	for i := 0; i < d.records(); i += httpBodyRecords {
		n, took, err := p.postIngest(ctx, data, d.slice(i, i+httpBodyRecords))
		if err != nil {
			return trips, err
		}
		acked += n
		trips = append(trips, ms(took))
	}
	p.obs.sent += int64(d.records())
	if acked != d.records() {
		p.obs.failed += int64(d.records() - acked)
		p.obs.problem("%s: day %s: %d records acknowledged of %d", p.w.name, d.date, acked, d.records())
	}
	return trips, nil
}

// mainHTTPChurn: warm-up by replay, then nine churn days as closed-loop
// POST /ingest bodies on the data connection; the control connection rolls
// the days over and polls each report. The loop is closed over the rollover
// too: the next day's first body goes out once the previous day's report is
// held. Saturating ingest beside a two-way parallel day-close on two cores
// made both the day's ingest time and the report latency flip between two
// values from pass to pass (which of the two got the cores), and an
// end-to-end metric that flaps rejects good changes; replay_churn and
// snapshot_churn keep a close overlapped with ingest.
func mainHTTPChurn(ctx context.Context, p *pass) error {
	if err := p.startWarm(ctx); err != nil {
		return err
	}
	data := newHTTPConn(p.d.httpAddr)
	defer data.close()

	days := p.measured()
	var prev *dayData
	for i := range days {
		d := &days[i]
		if err := p.rollover(ctx, prev, d); err != nil {
			return err
		}
		if err := p.joinPoll(); err != nil {
			return err
		}
		t0 := time.Now()
		trips, err := p.sendDayHTTP(ctx, data, d)
		if err != nil {
			return err
		}
		p.obs.noteIngest(d.records(), time.Since(t0))
		p.obs.httpIngest = append(p.obs.httpIngest, trips...)
		st, took, err := p.ctl.stats(ctx)
		if err != nil {
			return err
		}
		p.obs.statsLat = append(p.obs.statsLat, ms(took))
		p.obs.liveDomains = append(p.obs.liveDomains, float64(st.liveDomains()))
		prev = d
	}
	if err := p.rollover(ctx, prev, nil); err != nil {
		return err
	}
	if err := p.joinPoll(); err != nil {
		return err
	}
	return p.settle(ctx, nil)
}

// mainReplayChurn: reprod -replay over all 22 days, unpaced. Throughput
// is timed from exec to the last day's report being served; report latency
// here is the gap between consecutive measured days' reports being served,
// which is what a SOC catching up on a backlog waits per day: one day's
// ingest plus the share of its close the next day's ingest did not hide.
func mainReplayChurn(ctx context.Context, p *pass) error {
	if err := p.start(ctx, "-replay", p.ds.dir); err != nil {
		return err
	}
	days := p.measured()
	var served time.Time
	for i := range days {
		body, err := p.ctl.awaitReport(ctx, days[i].date)
		if err != nil {
			return err
		}
		now := time.Now()
		if i > 0 {
			p.obs.reportLat.add(p.obs.passes, ms(now.Sub(served)))
		}
		served = now
		p.checkReport(days[i].date, body)
	}
	total := 0
	for i := range p.ds.days {
		total += p.ds.days[i].records()
	}
	p.obs.noteIngest(total, served.Sub(p.d.execAt))
	p.obs.sent += int64(total)
	st, took, err := p.ctl.stats(ctx)
	if err != nil {
		return err
	}
	p.observeClose(&st, took)
	if st.TotalRecords != uint64(total) {
		p.obs.failed += max(int64(total)-int64(st.TotalRecords), 0)
		p.obs.problem("%s: daemon ingested %d records of %d on disk", p.w.name, st.TotalRecords, total)
	}
	return p.settle(ctx, nil)
}

// mainSnapshotChurn: restore the warm state with -checkpoint, then the
// first snapshotDays churn days open-loop at snapshotRate over TCP — slow
// enough that a day outlasts the control work scheduled into it. While a day
// streams in, the control connection collects the previous day's report and
// then, at each of snapshotAt's fractions of the day, runs one control round
// (a checkpoint and a few previews); the fixed schedule keeps them clear of
// the rollover and of the checkpoint the daemon itself writes after each
// close, so what is timed is a checkpoint beside ingest, not a pile-up of
// checkpoints. The last day is left open, the daemon is stopped on it, and
// restartAndClose takes it from there.
func mainSnapshotChurn(ctx context.Context, p *pass) error {
	// The daemon rewrites its checkpoint, so each pass works on a copy of
	// the warm one.
	p.ckpt = filepath.Join(p.h.work, fmt.Sprintf("%s-%d.ckpt", p.w.name, p.obs.passes))
	if err := copyFile(p.ds.warmCkpt, p.ckpt); err != nil {
		return err
	}
	if err := p.start(ctx, "-checkpoint", p.ckpt, "-listen-tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	conn, err := net.Dial("tcp", p.d.tcpAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	days := p.measured()[:snapshotDays]
	var prev *dayData
	interval := batchInterval(tcpBatchRecords, snapshotRate)
	for i := range days {
		d := &days[i]
		if err := p.rollover(ctx, prev, d); err != nil {
			return err
		}
		dayStart := time.Now()
		dayLen := batchInterval(d.records(), snapshotRate)
		// The control side of this day. It owns p.obs until it reports
		// back; the sending side below touches none of it meanwhile.
		type window struct{ from, to time.Time }
		var busy []window
		side := make(chan error, 1)
		go func() {
			err := p.joinPoll()
			for _, at := range snapshotAt {
				if err != nil {
					break
				}
				if err = sleepCtx(ctx, time.Until(dayStart.Add(time.Duration(at*float64(dayLen))))); err != nil {
					break
				}
				w := window{from: time.Now()}
				err = p.controlRound(ctx)
				w.to = time.Now()
				busy = append(busy, w)
			}
			side <- err
		}()
		late, err := sendTCP(ctx, conn, d, 0, d.records(), snapshotRate)
		if serr := <-side; err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		p.tcpSent += int64(d.records())
		p.obs.sent += int64(d.records())
		p.obs.late = append(p.obs.late, late...)
		// Lateness of the batches that fell due while a checkpoint or a
		// preview ran is what those cost the ingest side.
		for b, l := range late {
			due := dayStart.Add(time.Duration(b) * interval)
			for _, w := range busy {
				if !due.Before(w.from) && due.Before(w.to) {
					p.obs.ckptStall = append(p.obs.ckptStall, l)
				}
			}
		}
		if _, err := p.drainTCP(ctx); err != nil {
			return err
		}
		p.obs.noteIngest(d.records(), time.Since(dayStart))
		prev = d
	}
	if err := p.settle(ctx, prev); err != nil {
		return err
	}
	return p.restartAndClose(ctx, prev)
}

// timed is the round trip of one control request.
func (p *pass) timed(ctx context.Context, method, path string) (time.Duration, error) {
	t0 := time.Now()
	_, err := p.ctl.must(ctx, method, path, nil)
	return time.Since(t0), err
}

// controlRound is one POST /checkpoint followed by roundPreviews GET
// /preview. A preview of a small day is a few milliseconds that come out
// near 2 or near 4 depending on whether its two-way fan-out got both cores,
// so it is cheap enough, and jittery enough, to repeat.
func (p *pass) controlRound(ctx context.Context) error {
	ck, err := p.timed(ctx, http.MethodPost, "/checkpoint")
	if err != nil {
		return err
	}
	p.obs.checkpoint.add(p.obs.passes, ms(ck))
	for j := 0; j < roundPreviews; j++ {
		pv, err := p.timed(ctx, http.MethodGet, "/preview")
		if err != nil {
			return err
		}
		p.obs.preview.add(p.obs.passes, ms(pv))
	}
	return nil
}

// restart execs a daemon on a checkpoint that holds an open day, books the
// time from exec to /healthz as a restore, and checks the ack contract:
// the restart must hold exactly the acknowledged records of that day.
func (p *pass) restart(ctx context.Context, ckpt string, open *dayData) error {
	if err := p.start(ctx, "-checkpoint", ckpt); err != nil {
		return err
	}
	p.obs.restoreMS.add(p.obs.passes, ms(time.Since(p.d.execAt)))
	return p.settle(ctx, open)
}

// restartTimes restarts n times from ckpt and leaves the last daemon
// running; the others only restart and stop.
func (p *pass) restartTimes(ctx context.Context, n int, ckpt string, open *dayData) error {
	for r := 0; r < n; r++ {
		if r > 0 {
			if err := p.stop(); err != nil {
				return err
			}
		}
		if err := p.restart(ctx, ckpt, open); err != nil {
			return err
		}
	}
	return nil
}

// restartAndClose stops the daemon with a day open — the shutdown writes
// the final checkpoint — and restarts it from that file snapshotRestarts
// times. The last restart flushes the day and serves its report, timed like
// any other rollover.
func (p *pass) restartAndClose(ctx context.Context, open *dayData) error {
	if err := p.stop(); err != nil {
		return err
	}
	if err := p.restartTimes(ctx, snapshotRestarts, p.ckpt, open); err != nil {
		return err
	}
	if err := p.rollover(ctx, open, nil); err != nil {
		return err
	}
	if err := p.joinPoll(); err != nil {
		return err
	}
	return p.stop()
}

// runPass drives one pass and leaves no child behind.
func runPass(ctx context.Context, h *harness, w *workload, ds *dataset, obs *observations) (err error) {
	p := &pass{h: h, w: w, ds: ds, obs: obs}
	defer func() {
		p.abort()
		if p.poll != nil {
			<-p.poll // the poller ends once its daemon is gone
		}
		if p.ckpt != "" {
			os.Remove(p.ckpt)
		}
	}()
	cpu0 := selfCPU()
	if err := w.main(ctx, p); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := p.stop(); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	obs.driverCPU += selfCPU() - cpu0
	obs.passes++
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// warmUp replays the warm-up days through a real reprod and keeps the
// checkpoint its shutdown writes: the state every -checkpoint start of a
// pass restores.
func (ds *dataset) warmUp(ctx context.Context, h *harness, dir string) error {
	ds.warmCkpt = filepath.Join(dir, "warm.ckpt")
	d, err := startDaemon(ctx, h.bin, filepath.Join(h.logDir, "reprod-setup.log"),
		"-replay", ds.warmDir, "-checkpoint", ds.warmCkpt)
	if err != nil {
		return err
	}
	if err := d.await(ctx, d.replayDone, "the warm-up replay"); err != nil {
		d.kill()
		return err
	}
	_, err = d.stop()
	return err
}
