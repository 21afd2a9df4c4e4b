// Command entdetect reproduces the paper's enterprise evaluation (§VI): it
// synthesizes the AC-style web-proxy dataset, trains the pipeline on the
// profiling month, calibrates the two regressions against the simulated
// VirusTotal/IOC oracle, runs daily detection in both modes, and prints
// Figures 5-8 plus the per-day operational summary.
//
// Usage:
//
//	entdetect [-seed N] [-full] [-days] [-workers N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
	"repro/internal/report"
)

func main() {
	seed := flag.Int64("seed", 21, "dataset seed")
	full := flag.Bool("full", false, "use the full-scale dataset")
	days := flag.Bool("days", false, "print the per-day operational log")
	jsonOut := flag.Bool("json", false, "emit per-day SOC reports as JSON instead of figures")
	workers := flag.Int("workers", 0, "day-close pipeline workers (0 = GOMAXPROCS, 1 = sequential; results identical)")
	flag.Parse()
	if *jsonOut {
		if err := runJSON(os.Stdout, *seed, *full, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *seed, *full, *days, *workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// newRun executes the full evaluation per the command-line knobs.
func newRun(seed int64, full bool, workers int) *eval.EnterpriseRun {
	scale := eval.ScaleSmall
	if full {
		scale = eval.ScaleFull
	}
	return eval.RunEnterpriseWorkers(scale, seed, workers)
}

// runJSON emits the ordered suspicious-domain list of each operation day
// as the SOC-facing JSON report.
func runJSON(w io.Writer, seed int64, full bool, workers int) error {
	run := newRun(seed, full, workers)
	for _, rep := range run.OperationReports() {
		daily := report.Build(rep)
		if len(daily.Domains) == 0 {
			continue
		}
		if err := daily.WriteJSON(w); err != nil {
			return err
		}
	}
	return nil
}

func run(w io.Writer, seed int64, full, days bool, workers int) error {
	run := newRun(seed, full, workers)
	if !run.Pipe.Trained() {
		return fmt.Errorf("enterprise run: the models were never fit (%d C&C examples)", len(run.Pipe.CCExamples()))
	}

	det := run.Pipe.Detector()
	fmt.Fprintf(w, "calibration: %d C&C examples, %d similarity examples; Tc=%.3f Ts=%.3f\n",
		len(run.Pipe.CCExamples()), len(run.Pipe.SimilarityExamples()),
		det.Threshold, run.Pipe.SimThreshold())
	fmt.Fprintf(w, "C&C model: R²=%.3f on %d observations\n\n", det.Model.R2, det.Model.N)

	if days {
		for _, rep := range run.OperationReports() {
			fmt.Fprintf(w, "%s  rare=%-5d automated=%-3d C&C=%d",
				rep.Day.Format("2006-01-02"), rep.RareCount, len(rep.Automated), len(rep.CC))
			if rep.NoHint != nil {
				fmt.Fprintf(w, "  no-hint+%d", len(rep.NoHint.Detections))
			}
			if rep.SOCHints != nil {
				fmt.Fprintf(w, "  soc+%d", len(rep.SOCHints.Detections))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}

	_, f5 := eval.Figure5(run)
	fmt.Fprintln(w, f5)
	_, f6a := eval.Figure6a(run)
	fmt.Fprintln(w, f6a)
	_, f6b := eval.Figure6b(run)
	fmt.Fprintln(w, f6b)
	_, f6c := eval.Figure6c(run)
	fmt.Fprintln(w, f6c)
	c7, t7 := eval.Figure7(run)
	fmt.Fprintln(w, t7)
	fmt.Fprintln(w, c7.DOT)
	c8, t8 := eval.Figure8(run)
	fmt.Fprintln(w, t8)
	fmt.Fprintln(w, c8.DOT)
	return nil
}
