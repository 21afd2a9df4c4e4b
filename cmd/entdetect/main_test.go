package main

import (
	"strings"
	"testing"
)

// TestWorkersFlagReachesPipeline: the -workers knob must land in the
// pipeline configuration the evaluation runs with.
func TestWorkersFlagReachesPipeline(t *testing.T) {
	run := newRun(21, false, 2)
	if got := run.Pipe.Config().Workers; got != 2 {
		t.Fatalf("pipeline Workers = %d, want 2", got)
	}
}

func TestRunProducesAllArtifacts(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 21, false, true, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"calibration:", "C&C model:",
		"Figure 5:", "Figure 6(a):", "Figure 6(b):", "Figure 6(c):",
		"Figure 7", "Figure 8",
		"rare=", // the -days operational log
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
