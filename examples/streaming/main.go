// Command streaming demonstrates the live-feed deployment mode: the same
// synthetic enterprise the quickstart batches through is streamed in
// collector-sized batches into a sharded StreamEngine, with a
// checkpoint/restore restart in the middle of an operation day — the
// situation a production collector faces after a crash. Day rollovers are
// swap-and-continue: each completed day runs through the regular pipeline
// on a background goroutine while the next day's records stream in, and
// the reports match batch processing exactly; between rollovers the
// engine's live view shows beaconing pairs as they emerge. The run ends
// with the end-to-end throughput — ingest plus every day-close — which is
// the number that regressed when rollover still stalled ingestion.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro"
)

// ingestBatchSize mirrors a collector POST: a few thousand records per
// request, riding the engine's one-lock-per-batch hot path.
const ingestBatchSize = 2048

func ingestAll(e *repro.StreamEngine, recs []repro.ProxyRecord) error {
	for len(recs) > 0 {
		n := min(ingestBatchSize, len(recs))
		if err := e.IngestBatch(recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 42, TrainingDays: 7, OperationDays: 14,
		Hosts: 50, PopularDomains: 80, NewRarePerDay: 15,
		BenignAutoPerDay: 3, Campaigns: 8,
	})
	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: 42})

	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 5},
		reg, oracle.Reported, oracle.IOCs)
	e := repro.NewStreamEngine(repro.StreamConfig{
		Shards: 4, TrainingDays: g.Config().TrainingDays,
	}, p)

	restartDay := g.NumDays() - 3
	start := time.Now()
	total := 0
	for day := 0; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		// BeginDay swaps the previous day out to a background close and
		// returns immediately — this loop never waits for the analytics.
		if err := e.BeginDay(date, g.DHCPMap(day)); err != nil {
			return err
		}
		recs := g.Day(day)
		total += len(recs)
		half := len(recs)
		if day == restartDay {
			half = len(recs) / 2
		}
		if err := ingestAll(e, recs[:half]); err != nil {
			return err
		}

		if day == restartDay {
			// Simulated crash: checkpoint, abandon the engine, restore
			// into a fresh one, stream the rest of the day.
			var ckpt bytes.Buffer
			if err := e.Checkpoint(&ckpt); err != nil {
				return err
			}
			fmt.Printf("\n-- checkpointed mid-day %s (%d bytes), restarting --\n",
				date.Format("2006-01-02"), ckpt.Len())
			var err error
			e, err = repro.RestoreStreamEngine(&ckpt, repro.StreamConfig{Shards: 2},
				repro.StreamRestoreDeps{Whois: reg, Reported: oracle.Reported, IOCs: oracle.IOCs})
			if err != nil {
				return err
			}
			if err := ingestAll(e, recs[half:]); err != nil {
				return err
			}
			// The live view: beaconing pairs visible before rollover.
			fmt.Println("live beaconing pairs before the day closes:")
			for _, lp := range e.LiveAutomated(5) {
				fmt.Printf("    %-14s -> %-34s period=%.0fs samples=%d\n",
					lp.Host, lp.Domain, lp.Period, lp.Samples)
			}
			fmt.Println()
		}
	}
	// Flush waits for the last day-close, so the elapsed time covers the
	// full end-to-end work: batched ingest plus every pipeline day-close.
	if err := e.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("end-to-end: %d records, %d days in %v (%.0f rec/s incl. day-close)\n\n",
		total, g.NumDays(), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())

	for _, date := range e.Dates() {
		daily, ok := e.Report(date)
		if !ok {
			continue // training day
		}
		if len(daily.Domains) == 0 {
			continue
		}
		fmt.Printf("%s  %d suspicious domains (%d rare, %d automated)\n",
			date, len(daily.Domains), daily.RareDestinations, daily.AutomatedDomains)
		for _, d := range daily.Domains {
			truth := "NEW"
			if g.Truth.IsMalicious(d.Domain) {
				truth = "malicious (ground truth)"
			}
			fmt.Printf("    %-40s %-10s score=%.2f  [%s]\n", d.Domain, d.Reason, d.Score, truth)
		}
	}
	e.Close()
	return nil
}
