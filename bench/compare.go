package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// declaration is BENCHMARK.json: the one place metric units, directions
// and regression bounds are written down.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// verdict classifies B against A for one end-to-end metric: "worse" when B
// is worse than A by more than the metric's bound, "better" when it is
// better by more than the bound, "within-bound" otherwise. change is B's
// relative move in the worse direction, with A as its base.
func verdict(d metricDecl, a, b float64) (v string, change float64) {
	if a == 0 {
		return "within-bound", 0
	}
	change = (b - a) / a
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	}
	return "within-bound", change
}

// compareMain implements `bench compare A.json B.json`: per workload and
// end-to-end metric it prints A, B, the ratio B/A and a verdict from the
// bounds in BENCHMARK.json. It exits non-zero on any "worse" and on any
// larger share of failed operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	bad, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if bad > 0 {
		fmt.Printf("%d regressions\n", bad)
		return 1
	}
	return 0
}

func compareFiles(pathA, pathB string) (bad int, err error) {
	root, err := findRoot()
	if err != nil {
		return 0, err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return 0, fmt.Errorf("%s: %w", f.path, err)
		}
		if !f.into.Comparable {
			return 0, fmt.Errorf("%s is a smoke run: its numbers are not comparable", f.path)
		}
	}
	fmt.Printf("%-16s %-20s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, w := range decl.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			return 0, fmt.Errorf("workload %s is missing from one of the files", w.Name)
		}
		for _, d := range decl.EndToEnd {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			v, _ := verdict(d, va, vb)
			if v == "worse" {
				bad++
			}
			ratio := 0.0
			if va != 0 {
				ratio = vb / va
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %8.3fx  %s (bound %.0f%% of A, %s is better, %s)\n",
				w.Name, d.Name, va, vb, ratio, v, d.Bound*100, d.Better, d.Unit)
		}
		sa, sb := failedShare(ra), failedShare(rb)
		v := "within-bound"
		if sb > sa {
			v = "worse"
			bad++
		}
		fmt.Printf("%-16s %-20s %14.6g %14.6g %9s  %s (share of records sent)\n", w.Name, "failed", sa, sb, "", v)
	}
	return bad, nil
}

func failedShare(r *runResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
