// Command reprod is the long-running streaming detector: the daemon
// counterpart of the daily-batch deployment the paper describes. It ingests
// proxy records over HTTP (or replays an on-disk dataset), shards them
// across cores via internal/stream, and serves the same SOC reports the
// batch pipelines produce.
//
// Usage:
//
//	reprod [-addr :8714] [-shards N] [-queue N]
//	       [-workers N] [-seed N] [-full] [-training N]
//	       [-replay DIR]
//	       [-checkpoint FILE] [-checkpoint-interval D] [-max-ingest-bytes N]
//	       [-alert-config FILE] [-preview-interval D]
//	       [-listen-tcp ADDR] [-listen-syslog ADDR] [-listen-flow ADDR]
//	       [-pprof ADDR]
//
// Because the paper's intelligence externals (VirusTotal, SOC IOC lists,
// WHOIS) are simulated, the daemon synthesizes them from the dataset seed:
// -seed must match the seed the dataset was generated with for calibration
// labels to resolve (the same contract cmd/entdetect has).
//
// # HTTP API
//
//	POST /day               {"date":"YYYY-MM-DD","leases":{"ip":"host",...}}
//	                        opens a day (completing the previous one)
//	POST /ingest            TSV proxy records (the internal/logs codec),
//	                        ingested as one atomic batch; responds 429 when
//	                        shards lag, 413 over -max-ingest-bytes
//	POST /flush             completes the open day and waits for its close
//	POST /checkpoint        writes the engine state to -checkpoint
//	GET  /report/YYYY-MM-DD the day's SOC report (JSON); 202 + Retry-After
//	                        while the day's close still runs in the background
//	GET  /reports           completed days
//	GET  /stats             engine statistics, live beaconing pairs,
//	                        day-close state (closing, last rollover
//	                        pause, last pipeline duration), last
//	                        preview timings, and alert counters
//	GET  /preview           a fresh mid-day detection preview: the report a
//	                        rollover right now would publish, computed from
//	                        a clone without closing the day (409 when no day
//	                        is open)
//	GET  /alerts/stats      alert dispatcher counters (published, sent,
//	                        dropped, per-sink queue depth and last error)
//	GET  /healthz           liveness
//
// # Live listeners
//
// Beyond TSV-over-HTTP, the daemon ingests framed TCP feeds (see
// internal/inputs): -listen-tcp accepts newline-delimited proxy TSV
// records, -listen-syslog accepts RFC 6587 octet-counted frames carrying
// an RFC 5424 header whose message is one proxy TSV record, and
// -listen-flow accepts newline-delimited netflow TSV records embedded
// through the flow reduction's filters. TCP cannot answer 429, so a
// lagging engine sheds listener batches with counted drops; per-listener
// counters (frames, records, sheds, malformed) appear under "inputs" in
// GET /stats. Days are still opened via POST /day (or replay): listener
// records arriving with no day open are counted as rejected, not buffered.
//
// # Profiling
//
// -pprof ADDR serves net/http/pprof (/debug/pprof/...) on a listener of its
// own — bind it to loopback. It is off by default and never reachable
// through the API address, so exposing -addr exposes no profile endpoint.
//
// # Alerting
//
// -alert-config FILE (JSON; see internal/alert) wires detection
// output to webhook/syslog/file sinks: day-close reports publish confirmed
// events, and with -preview-interval set, periodic previews publish
// provisional events (plus health events when previews fail). Delivery is
// best-effort by construction — a slow or dead sink drops alerts (counted
// in /alerts/stats), never stalls ingestion or day-close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/batch"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/inputs"
	"repro/internal/intel"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/whois"
)

// daemonOpts carries the parsed command-line configuration.
type daemonOpts struct {
	addr         string
	shards       int
	queue        int
	seed         int64
	full         bool
	training     int
	workers      int
	replay       string
	checkpoint   string
	ckptInterval time.Duration
	maxIngest    int64
	alertConfig  string
	previewEvery time.Duration
	listenTCP    string
	listenSyslog string
	listenFlow   string
	pprofAddr    string
	// closeHook is stream.Config.CloseHook, for tests that stall a day-close;
	// no flag sets it.
	closeHook func(date string)
}

func main() {
	var o daemonOpts
	flag.StringVar(&o.addr, "addr", ":8714", "HTTP listen address")
	flag.IntVar(&o.shards, "shards", 0, "ingest shards (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "per-shard queue depth (0 = default)")
	flag.Int64Var(&o.seed, "seed", 1, "dataset seed for the simulated WHOIS/intel externals")
	flag.BoolVar(&o.full, "full", false, "size the externals for the full-scale dataset")
	flag.IntVar(&o.training, "training", 0, "training days (0 = the scale's default)")
	flag.IntVar(&o.workers, "workers", 0, "day-close pipeline workers for operators co-locating the daemon (1 = sequential; 0 = GOMAXPROCS on a fresh start, keeps the checkpointed value on restore)")
	flag.StringVar(&o.replay, "replay", "", "replay a cmd/datagen enterprise dataset directory, then keep serving")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file: restored on start if present, written on rollover and shutdown")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", 0, "also write the checkpoint periodically (e.g. 15m; 0 = rollover/shutdown only; requires -checkpoint); a write due during a day-close waits for the close to finish")
	flag.Int64Var(&o.maxIngest, "max-ingest-bytes", defaultMaxIngestBytes, "largest accepted /ingest or /day body in bytes (oversized requests get 413)")
	flag.StringVar(&o.alertConfig, "alert-config", "", "alert routing configuration (JSON): sinks (webhook/syslog/file/stdout) and rules; day-close reports publish confirmed alert events")
	flag.DurationVar(&o.previewEvery, "preview-interval", 0, "run a mid-day detection preview periodically (e.g. 5m; 0 = off), publishing provisional alert events")
	flag.StringVar(&o.listenTCP, "listen-tcp", "", "also ingest newline-framed proxy TSV records on this TCP address")
	flag.StringVar(&o.listenSyslog, "listen-syslog", "", "also ingest RFC 6587 octet-counted RFC 5424 syslog frames (proxy TSV message body) on this TCP address")
	flag.StringVar(&o.listenFlow, "listen-flow", "", "also ingest newline-framed netflow TSV records on this TCP address")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on its own listener (off by default; never on the API address; bind it to loopback)")
	flag.Parse()

	if o.ckptInterval > 0 && o.checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-checkpoint-interval requires -checkpoint (there is no file to write to)")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// newEngine builds (or restores, when a checkpoint file exists) the
// streaming engine the daemon serves, per the parsed flags. Separated from
// run so the flag-plumbing tests can exercise it without a listening
// daemon.
func newEngine(o daemonOpts, engCfg stream.Config) (*stream.Engine, error) {
	scale := eval.ScaleSmall
	if o.full {
		scale = eval.ScaleFull
	}
	genCfg := eval.EnterpriseScale(scale, o.seed)

	// The simulated externals. Deterministic in the seed, so a daemon
	// restarted against the same dataset reconstructs the same oracle.
	g := gen.NewEnterprise(genCfg)
	if engCfg.TrainingDays == 0 {
		// The generator's defaulted config, not genCfg: the full-scale
		// preset leaves TrainingDays zero for gen to default.
		engCfg.TrainingDays = g.Config().TrainingDays
	}
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, g.Truth, gen.OracleConfig{Seed: o.seed})

	calDays := 7
	if o.full {
		calDays = 14
	}

	deps := stream.RestoreDeps{Whois: reg, Reported: oracle.Reported, IOCs: oracle.IOCs, Workers: o.workers}
	if o.checkpoint != "" {
		f, err := os.Open(o.checkpoint)
		switch {
		case err == nil:
			restored, rerr := stream.Restore(f, engCfg, deps)
			f.Close()
			if rerr != nil {
				// A corrupt or truncated checkpoint must stop the daemon
				// here, with the cause: silently starting fresh would
				// overwrite it and destroy the behavioural history.
				return nil, fmt.Errorf("restore checkpoint %s: %w (remove or repair the file to start fresh)", o.checkpoint, rerr)
			}
			log.Printf("restored from %s: %d days done", o.checkpoint, restored.DaysDone())
			return restored, nil
		case !os.IsNotExist(err):
			// Anything but a clean absence must stop the daemon: starting
			// fresh would overwrite the checkpoint and destroy the history.
			return nil, fmt.Errorf("open checkpoint %s: %w", o.checkpoint, err)
		}
	}
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: calDays, Workers: o.workers},
		reg, oracle.Reported, oracle.IOCs)
	return stream.New(engCfg, pipe), nil
}

// shutdownGrace bounds how long the ordered shutdown drains in-flight HTTP
// requests. An in-flight day-close is waited out unbounded.
const shutdownGrace = 10 * time.Second

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a header that never ends cannot hold an HTTP port's connection
// open. Bodies stay untimed: a large /ingest over a slow link is legitimate.
const readHeaderTimeout = 10 * time.Second

// daemon owns the running pieces of one reprod process and the order they
// are torn down in. The shutdown sequence is the data-safety contract:
// every record the daemon acknowledged — a 200 on /ingest, a completed
// listener batch — must be inside the final checkpoint.
type daemon struct {
	o       daemonOpts
	eng     *stream.Engine
	srv     *server
	httpSrv *http.Server
	httpLn  net.Listener
	alerts  *alert.Dispatcher
	inputs  []*inputs.Listener
	// pprofSrv serves net/http/pprof on pprofLn; both nil unless -pprof.
	pprofSrv *http.Server
	pprofLn  net.Listener

	// stop ends the background loops (periodic checkpoints, previews) and
	// interrupts a running replay; rolledOver carries the engine's
	// "day completed" pulses to the rollover-checkpoint goroutine and is
	// closed only once the engine is quiesced.
	stop       chan struct{}
	rolledOver chan struct{}
	errc       chan error
	replayWG   sync.WaitGroup
	loopWG     sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// newDaemon builds every component and binds every socket, so address
// errors surface before any goroutine starts and tests learn the real
// ports from an ":0" bind.
func newDaemon(o daemonOpts) (*daemon, error) {
	var err error
	d := &daemon{
		o:          o,
		stop:       make(chan struct{}),
		rolledOver: make(chan struct{}, 1),
		errc:       make(chan error, 4),
	}
	// The alert dispatcher outlives the engine teardown path: Publish
	// never blocks, and Close flushes what the sinks can still take.
	defer func() {
		if err != nil {
			d.closeSockets()
		}
	}()
	if o.alertConfig != "" {
		var acfg alert.Config
		if acfg, err = alert.LoadConfig(o.alertConfig); err != nil {
			return nil, fmt.Errorf("alert config %s: %w", o.alertConfig, err)
		}
		if d.alerts, err = alert.NewDispatcherFromConfig(acfg); err != nil {
			return nil, fmt.Errorf("alert config %s: %w", o.alertConfig, err)
		}
		log.Printf("alerting to %d sinks via %s", len(acfg.Sinks), o.alertConfig)
	}

	// OnReport fires on the day-close goroutine while that close still counts
	// as in flight, and a checkpoint waits the close out, so the checkpoint
	// is kicked to a separate goroutine.
	// Alert publishing, by contrast, is safe inline: Publish is a
	// non-blocking counter bump + channel send by contract.
	engCfg := stream.Config{
		Shards: o.shards, QueueDepth: o.queue, TrainingDays: o.training,
		CloseHook: o.closeHook,
		// Nothing in the daemon reads Engine.DayReport — /report serves the
		// compact dailies, which are always kept — so hold only the latest
		// full report (and its day snapshot) instead of the library's seven.
		RetainDayReports: 1,
		OnReport: func(rep pipeline.EnterpriseDayReport, daily *report.Daily) {
			if daily == nil {
				log.Printf("day %s trained: %d records, %d rare", rep.Day.Format("2006-01-02"),
					rep.Stats.Records, rep.RareCount)
			} else {
				log.Printf("day %s processed: %d records, %d rare, %d automated, %d suspicious domains",
					rep.Day.Format("2006-01-02"), rep.Stats.Records, rep.RareCount,
					len(rep.Automated), len(daily.Domains))
				if d.alerts != nil {
					for _, ev := range alert.EventsFromDaily(*daily, alert.KindConfirmed, time.Now()) {
						d.alerts.Publish(ev)
					}
				}
			}
			select {
			case d.rolledOver <- struct{}{}:
			default:
			}
		},
	}
	d.eng, err = newEngine(o, engCfg)
	if err != nil {
		return nil, err
	}

	d.srv = newServer(d.eng, o.checkpoint, o.maxIngest, d.alerts)
	d.httpLn, err = net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	d.httpSrv = &http.Server{Handler: d.srv.mux(), ReadHeaderTimeout: readHeaderTimeout}

	// The live listeners bind here but accept immediately: the engine is
	// already able to ingest (or to count rejections when no day is open).
	type spec struct {
		addr string
		cfg  inputs.Config
	}
	specs := []spec{
		{o.listenTCP, inputs.Config{Name: "tcp", Framing: inputs.FramingNewline, Format: inputs.FormatProxy}},
		{o.listenSyslog, inputs.Config{Name: "syslog", Framing: inputs.FramingOctet, Format: inputs.FormatProxy, SyslogHeader: true}},
		{o.listenFlow, inputs.Config{Name: "flow", Framing: inputs.FramingNewline, Format: inputs.FormatFlow}},
	}
	for _, sp := range specs {
		if sp.addr == "" {
			continue
		}
		sp.cfg.Logf = log.Printf
		var l *inputs.Listener
		if l, err = inputs.Listen(d.eng, sp.addr, sp.cfg); err != nil {
			return nil, err
		}
		log.Printf("ingesting %s records on %s", sp.cfg.Name, l.Addr())
		d.inputs = append(d.inputs, l)
	}
	d.srv.inputs = d.inputs
	if o.pprofAddr != "" {
		if d.pprofLn, err = net.Listen("tcp", o.pprofAddr); err != nil {
			return nil, fmt.Errorf("pprof listener: %w", err)
		}
		d.pprofSrv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: readHeaderTimeout}
		log.Printf("serving pprof on %s", d.pprofLn.Addr())
	}
	return d, nil
}

// pprofMux routes the net/http/pprof handlers on a mux of their own: the
// package's import-time registration lands on http.DefaultServeMux, which
// this daemon never serves.
func pprofMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// closeSockets releases everything newDaemon bound — the bail-out path
// when construction fails partway.
func (d *daemon) closeSockets() {
	for _, l := range d.inputs {
		l.Close()
	}
	if d.httpLn != nil {
		d.httpLn.Close()
	}
	if d.pprofLn != nil {
		d.pprofLn.Close()
	}
	if d.alerts != nil {
		d.alerts.Close()
	}
}

// start launches the daemon's goroutines: the HTTP server, the
// rollover-checkpoint consumer, the optional periodic-checkpoint and
// preview loops, and the optional replay.
func (d *daemon) start() {
	go func() {
		log.Printf("reprod listening on %s", d.httpLn.Addr())
		if err := d.httpSrv.Serve(d.httpLn); !errors.Is(err, http.ErrServerClosed) {
			d.errc <- err
		}
	}()
	if d.pprofLn != nil {
		// Diagnostics only: a failed profile server is logged, not fatal.
		go func() {
			if err := d.pprofSrv.Serve(d.pprofLn); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	d.loopWG.Add(1)
	go func() {
		defer d.loopWG.Done()
		for range d.rolledOver {
			if err := d.srv.writeCheckpoint(); err != nil {
				log.Printf("checkpoint after rollover: %v", err)
			}
		}
	}()
	if d.o.checkpoint != "" && d.o.ckptInterval > 0 {
		d.loopWG.Add(1)
		go func() {
			defer d.loopWG.Done()
			d.srv.runPeriodicCheckpoints(d.o.ckptInterval, d.stop)
		}()
	}
	if d.o.previewEvery > 0 {
		d.loopWG.Add(1)
		go func() {
			defer d.loopWG.Done()
			d.srv.runPreviewLoop(d.o.previewEvery, d.stop)
		}()
	}
	if d.o.replay != "" {
		d.replayWG.Add(1)
		go func() {
			defer d.replayWG.Done()
			start := time.Now()
			err := stream.ReplayDir(d.eng, d.o.replay, stream.ReplayOptions{
				Stop: d.stop,
				OnDay: func(day batch.Day, records int) {
					log.Printf("replayed %s (%d records)", day.Date.Format("2006-01-02"), records)
				},
			})
			switch {
			case errors.Is(err, stream.ErrStopped):
				log.Printf("replay of %s interrupted by shutdown", d.o.replay)
				return
			case err != nil:
				d.errc <- fmt.Errorf("replay: %w", err)
				return
			}
			log.Printf("replay of %s done in %v; serving reports", d.o.replay, time.Since(start).Round(time.Millisecond))
			if cerr := d.srv.writeCheckpoint(); cerr != nil {
				log.Printf("checkpoint: %v", cerr)
			}
		}()
	}
}

// shutdown tears the daemon down in acknowledgment-safe order and writes
// the final checkpoint last, so the snapshot covers everything any client
// was told succeeded. Idempotent; later calls return the first result.
func (d *daemon) shutdown() error {
	d.shutdownOnce.Do(func() { d.shutdownErr = d.doShutdown() })
	return d.shutdownErr
}

func (d *daemon) doShutdown() error {
	if d.pprofSrv != nil {
		// Last out, so the teardown itself can still be profiled.
		defer d.pprofSrv.Close()
	}
	// 1. Stop HTTP intake gracefully: no new connections, in-flight
	// requests run to completion so their 200s are honest. A wedged
	// handler falls back to a hard close after the grace period.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := d.httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v; closing remaining connections", err)
		d.httpSrv.Close()
	}
	// 2. Stop the live listeners: Close unblocks every connection read and
	// waits for the handlers to deliver their pending parsed batches.
	for _, l := range d.inputs {
		l.Close()
	}
	// 3. Stop the background loops and interrupt a running replay at its
	// next batch boundary.
	close(d.stop)
	d.replayWG.Wait()
	// 4. Quiesce the engine: wait out an in-flight day-close, however long
	// it takes — the final checkpoint would wait for it anyway. After this,
	// with every ingest source stopped and no close pending, nothing can
	// fire OnReport again — so closing rolledOver is safe, and the
	// rollover-checkpoint goroutine drains any pending pulse and exits.
	d.awaitCloseDrained()
	close(d.rolledOver)
	d.loopWG.Wait()
	// 5. Only now snapshot: the checkpoint sees every acknowledged record
	// and the completed day history.
	if err := d.srv.writeCheckpoint(); err != nil {
		return fmt.Errorf("shutdown checkpoint: %w", err)
	}
	if d.alerts != nil {
		d.alerts.Close()
	}
	return nil
}

// awaitCloseDrained polls out the background day-close. It has no deadline:
// giving up would let the close's OnReport send on rolledOver after it is
// closed, and the final checkpoint waits for the close regardless.
func (d *daemon) awaitCloseDrained() {
	for {
		if _, pending := d.eng.PendingClose(); !pending {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func run(o daemonOpts) error {
	d, err := newDaemon(o)
	if err != nil {
		return err
	}
	d.start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-d.errc:
		// Fatal component failure (HTTP serve, replay): still run the
		// ordered shutdown so acknowledged records reach the checkpoint,
		// but report the original failure.
		if serr := d.shutdown(); serr != nil {
			log.Printf("shutdown after failure: %v", serr)
		}
		return err
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		return d.shutdown()
	}
}
