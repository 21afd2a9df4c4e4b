// Command benchreport regenerates every table and figure of the paper in
// one run and prints them as plain-text artifacts — the same content the
// benchmark harness measures and EXPERIMENTS.md records.
//
// Usage:
//
//	benchreport [-seed N] [-full] [-o FILE]
//
// Performance is measured by the bench/ module (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
)

func main() {
	seed := flag.Int64("seed", 21, "dataset seed")
	full := flag.Bool("full", false, "use the full-scale datasets")
	outPath := flag.String("o", "", "write the report to a file instead of stdout")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, *seed, *full); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, seed int64, full bool) error {
	scale := eval.ScaleSmall
	if full {
		scale = eval.ScaleFull
	}

	fmt.Fprintf(w, "Reproduction report — Oprea et al., DSN 2015 (seed=%d, full=%v)\n", seed, full)
	fmt.Fprintln(w, "================================================================")
	fmt.Fprintln(w)

	lanl := eval.RunLANL(scale, seed)
	fmt.Fprintln(w, eval.Table1(lanl))
	_, t2 := eval.Table2(lanl)
	fmt.Fprintln(w, t2)
	res3, t3 := eval.Table3(lanl)
	fmt.Fprintln(w, t3)
	tot := res3.Totals()
	fmt.Fprintf(w, "paper: TDR 98.33%% FDR 1.67%% FNR 6.25%% | this run: TDR %s FDR %s FNR %s\n\n",
		eval.Pct(tot.TDR()), eval.Pct(tot.FDR()), eval.Pct(tot.FNR()))

	_, f2 := eval.Figure2(lanl)
	fmt.Fprintln(w, f2)
	res3f, f3 := eval.Figure3(lanl)
	fmt.Fprintln(w, f3)
	fmt.Fprintf(w, "paper: 56%% of (mal,mal) pairs within 160s vs 3.8%% (mal,legit) | this run: %s vs %s\n\n",
		eval.Pct(res3f.MalMal.At(160)), eval.Pct(res3f.MalLegit.At(160)))
	f4res, f4 := eval.Figure4(lanl)
	fmt.Fprintln(w, f4)
	fmt.Fprintln(w, f4res.DOT)

	ent := eval.RunEnterprise(scale, seed)
	if !ent.Pipe.Trained() {
		return fmt.Errorf("enterprise run: the models were never fit (%d C&C examples)", len(ent.Pipe.CCExamples()))
	}
	det := ent.Pipe.Detector()
	fmt.Fprintf(w, "enterprise calibration: %d C&C / %d similarity examples, Tc=%.3f Ts=%.3f, C&C model R²=%.3f\n\n",
		len(ent.Pipe.CCExamples()), len(ent.Pipe.SimilarityExamples()),
		det.Threshold, ent.Pipe.SimThreshold(), det.Model.R2)

	_, f5 := eval.Figure5(ent)
	fmt.Fprintln(w, f5)
	_, f6a := eval.Figure6a(ent)
	fmt.Fprintln(w, f6a)
	_, f6b := eval.Figure6b(ent)
	fmt.Fprintln(w, f6b)
	_, f6c := eval.Figure6c(ent)
	fmt.Fprintln(w, f6c)
	c7, t7 := eval.Figure7(ent)
	fmt.Fprintln(w, t7)
	fmt.Fprintln(w, c7.DOT)
	c8, t8 := eval.Figure8(ent)
	fmt.Fprintln(w, t8)
	fmt.Fprintln(w, c8.DOT)

	_, cl := eval.Clusters(ent)
	fmt.Fprintln(w, cl)

	_, a1 := eval.AblationDetectors(seed, 40)
	fmt.Fprintln(w, a1)
	_, a2, err := eval.AblationFeatures(ent)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, a2)
	_, a3 := eval.AblationEvasion(seed, 200)
	fmt.Fprintln(w, a3)
	_, a4 := eval.AblationDistanceMetric(seed, 60)
	fmt.Fprintln(w, a4)
	_, a5 := eval.AblationRareRestriction(lanl)
	fmt.Fprintln(w, a5)
	_, gn := eval.Generality(scale, seed)
	fmt.Fprintln(w, gn)
	return nil
}
