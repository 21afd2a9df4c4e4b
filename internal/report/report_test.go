package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/eval"
)

func buildFromRun(t *testing.T) []Daily {
	t.Helper()
	run := eval.RunEnterprise(eval.ScaleSmall, 21)
	var out []Daily
	for _, rep := range run.OperationReports() {
		out = append(out, Build(rep))
	}
	if len(out) == 0 {
		t.Fatal("no operation reports")
	}
	return out
}

func TestBuildDailyReports(t *testing.T) {
	dailies := buildFromRun(t)
	sawDomains, sawCC, sawBoth := false, false, false
	for _, d := range dailies {
		if d.Date == "" || d.RareDestinations == 0 {
			t.Errorf("malformed daily: %+v", d)
		}
		for _, dom := range d.Domains {
			sawDomains = true
			if len(dom.Modes) == 0 || len(dom.Hosts) == 0 {
				t.Errorf("entry %s lacks modes/hosts", dom.Domain)
			}
			if dom.BeaconPeriodSeconds > 0 {
				sawCC = true
				if dom.Reason != "c&c" {
					t.Errorf("beaconing entry %s has reason %s", dom.Domain, dom.Reason)
				}
			}
			if len(dom.Modes) == 2 {
				sawBoth = true
			}
		}
		// C&C entries must sort before similarity entries.
		seenSim := false
		for _, dom := range d.Domains {
			if dom.BeaconPeriodSeconds == 0 {
				seenSim = true
			} else if seenSim {
				t.Error("C&C entry after similarity entry in ordering")
			}
		}
		if len(d.Domains) > 0 && len(d.CompromisedHosts) == 0 {
			t.Error("detections without compromised hosts")
		}
	}
	if !sawDomains || !sawCC {
		t.Errorf("report coverage: domains=%v cc=%v", sawDomains, sawCC)
	}
	_ = sawBoth // both-modes overlap is seed-dependent; presence not required
}

func TestWriteJSONRoundTrip(t *testing.T) {
	dailies := buildFromRun(t)
	var chosen Daily
	for _, d := range dailies {
		if len(d.Domains) > 0 {
			chosen = d
			break
		}
	}
	var buf bytes.Buffer
	if err := chosen.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Daily
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Date != chosen.Date || len(back.Domains) != len(chosen.Domains) {
		t.Errorf("round trip mismatch: %+v vs %+v", back.Date, chosen.Date)
	}
}

func TestReportDeterministic(t *testing.T) {
	a := buildFromRun(t)
	b := buildFromRun(t)
	if len(a) != len(b) {
		t.Fatal("day counts differ")
	}
	for i := range a {
		var ba, bb bytes.Buffer
		if err := a[i].WriteJSON(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b[i].WriteJSON(&bb); err != nil {
			t.Fatal(err)
		}
		if ba.String() != bb.String() {
			t.Fatalf("day %d report not deterministic", i)
		}
	}
}
