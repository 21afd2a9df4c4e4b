// Command alerts demonstrates the outbound alert subsystem end to end: the
// synthetic enterprise streams through a StreamEngine while an alert
// dispatcher pushes detections to a webhook receiver — the SOC hand-off the
// paper describes (§III-E), as a push channel instead of report polling.
// Mid-day previews publish provisional events hours before the day closes;
// the day-close publishes the confirmed ones. The receiver here is an
// in-process HTTP server standing in for a SOC ticketing webhook, so the
// program prints both sides of the hand-off: what the detector pushed and
// what the receiver got, plus the dispatcher's delivery counters.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
)

// receiver is the stand-in SOC webhook endpoint: it decodes each POSTed
// alert event and keeps them in arrival order.
type receiver struct {
	mu     sync.Mutex
	events []repro.AlertEvent
}

func (r *receiver) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var ev repro.AlertEvent
	if err := json.NewDecoder(req.Body).Decode(&ev); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The webhook receiver the dispatcher will POST to.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rcv := &receiver{}
	websrv := &http.Server{Handler: rcv}
	go websrv.Serve(ln)
	defer websrv.Close()

	// The alert configuration, in the JSON -alert-config takes. One rule:
	// detection events at warning or above go to the SOC webhook
	// (suppression is off so the provisional and confirmed copies of the
	// same detection both show up in the demo output).
	cfgText := fmt.Sprintf(`{
  "suppressMinutes": -1,
  "queueSize": 64,
  "sinks": [{"name": "soc", "type": "webhook", "url": "http://%s/hook"}],
  "rules": [{
    "name": "page-on-detections",
    "kinds": ["confirmed", "provisional"],
    "minSeverity": "warning",
    "sinks": ["soc"]
  }]
}`, ln.Addr())
	acfg, err := repro.ParseAlertConfig([]byte(cfgText))
	if err != nil {
		return err
	}
	alerts, err := repro.NewAlertDispatcherFromConfig(acfg)
	if err != nil {
		return err
	}

	// The usual synthetic enterprise and pipeline (see examples/streaming).
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 42, TrainingDays: 5, OperationDays: 10,
		Hosts: 50, PopularDomains: 70, NewRarePerDay: 18,
		BenignAutoPerDay: 4, Campaigns: 8,
	})
	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: 42})
	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 4},
		reg, oracle.Reported, oracle.IOCs)

	// Day-close reports publish confirmed events — exactly what cmd/reprod
	// does under -alert-config. Publish never blocks, so calling it from
	// OnReport (which runs on the engine's day-close goroutine) is safe.
	e := repro.NewStreamEngine(repro.StreamConfig{
		Shards: 4, TrainingDays: g.Config().TrainingDays,
		OnReport: func(rep repro.EnterpriseDayReport, daily *repro.DailyReport) {
			if daily == nil {
				return
			}
			for _, ev := range repro.AlertEventsFromDaily(*daily, repro.AlertConfirmed, time.Now()) {
				alerts.Publish(ev)
			}
		},
	}, p)

	for day := 0; day < g.NumDays(); day++ {
		if err := e.BeginDay(g.DayTime(day), g.DHCPMap(day)); err != nil {
			return err
		}
		recs := g.Day(day)
		half := len(recs) * 3 / 4
		if err := e.IngestBatch(recs[:half]); err != nil {
			return err
		}
		// Most of the day in: a preview is the report a rollover right now
		// would publish. Its detections go out as provisional events —
		// the early warning the SOC gets hours before the day closes.
		pr, err := e.Preview(0)
		if err != nil {
			return err
		}
		if len(pr.Report.Domains) > 0 {
			fmt.Printf("%s mid-day preview (%d records in): %d provisional detections\n",
				pr.Date, pr.Records, len(pr.Report.Domains))
			for _, ev := range repro.AlertEventsFromDaily(pr.Report, repro.AlertProvisional, time.Now()) {
				alerts.Publish(ev)
			}
		}
		if err := e.IngestBatch(recs[half:]); err != nil {
			return err
		}
	}
	if err := e.Flush(); err != nil {
		return err
	}
	e.Close()
	// Close drains the sink queues (bounded), so every queued alert that
	// the receiver can take has been delivered when it returns.
	if err := alerts.Close(); err != nil {
		return err
	}

	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	fmt.Printf("\nthe SOC webhook received %d alerts:\n", len(rcv.events))
	for _, ev := range rcv.events {
		truth := "NEW"
		if g.Truth.IsMalicious(ev.Domain) {
			truth = "malicious (ground truth)"
		}
		fmt.Printf("    %-11s %-8s %-38s score=%.2f  [%s]\n",
			ev.Kind, ev.Severity, ev.Domain, ev.Score, truth)
	}
	st := alerts.Stats()
	fmt.Printf("\ndispatcher: published=%d matched=%d sent=%d dropped=%d\n",
		st.Published, st.Matched, st.Sent, st.Dropped)
	return nil
}
