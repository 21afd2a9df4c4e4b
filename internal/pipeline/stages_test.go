package pipeline

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/whois"
)

// The day-close stages are pure (no pipeline mutation), so they can be
// driven one at a time against hand-built inputs — the property the
// Process stage split exists for.

func stageFixture() (*Enterprise, time.Time, []logs.Visit) {
	day := time.Date(2014, 3, 10, 0, 0, 0, 0, time.UTC)
	var visits []logs.Visit
	// A beaconing rare domain (automated) and scattered one-off domains.
	for i := 0; i < 40; i++ {
		visits = append(visits, logs.Visit{
			Time: day.Add(time.Duration(i) * 10 * time.Minute),
			Host: "victim", Domain: "beacon.example",
		})
	}
	for i := 0; i < 15; i++ {
		visits = append(visits, logs.Visit{
			Time: day.Add(time.Duration(i*53) * time.Minute),
			Host: fmt.Sprintf("h%d", i), Domain: fmt.Sprintf("once-%d.example", i),
		})
	}
	p := NewEnterprise(EnterpriseConfig{Workers: 2}, whois.NewRegistry(), nil, nil)
	return p, day, visits
}

func TestStageSnapshotIsolated(t *testing.T) {
	p, day, visits := stageFixture()
	snap := p.stageSnapshot(day, visits)
	if snap.AllDomains != 16 {
		t.Fatalf("AllDomains = %d, want 16", snap.AllDomains)
	}
	if snap.RareCount() != 16 {
		t.Fatalf("RareCount = %d, want 16 (empty history: everything is new+unpopular)", snap.RareCount())
	}
	// Pure: the history must be untouched until Commit.
	if p.History().DomainCount() != 0 {
		t.Fatal("stageSnapshot mutated the history")
	}
	if got := len(snap.HostRare("victim")); got != 1 {
		t.Fatalf("victim contacts %d rare domains, want 1", got)
	}
}

func TestStageDetectIsolated(t *testing.T) {
	p, day, visits := stageFixture()
	snap := p.stageSnapshot(day, visits)
	ads := p.stageDetect(snap, p.cfg.Workers)
	if len(ads) != 1 || ads[0].Domain != "beacon.example" {
		t.Fatalf("automated = %+v, want exactly beacon.example", ads)
	}
	if len(ads[0].AutoHosts) != 1 || ads[0].AutoHosts[0] != "victim" {
		t.Fatalf("AutoHosts = %v, want [victim]", ads[0].AutoHosts)
	}
	// Detection must not commit anything either.
	if p.History().DomainCount() != 0 {
		t.Fatal("stageDetect mutated the history")
	}
}

func TestStageAssembleIsolated(t *testing.T) {
	p, day, visits := stageFixture()
	snap := p.stageSnapshot(day, visits)
	stats := normalize.ProxyStats{Records: len(visits), Kept: len(visits)}
	rep := stageAssemble(day, stats, snap)
	if !rep.Day.Equal(day) || rep.Stats != stats {
		t.Fatalf("assembled report header %+v", rep)
	}
	if rep.RareCount != snap.RareCount() || rep.NewCount != snap.NewDomains {
		t.Fatalf("assembled counts %d/%d, want %d/%d",
			rep.NewCount, rep.RareCount, snap.NewDomains, snap.RareCount())
	}
	if rep.Snapshot != snap {
		t.Fatal("assembled report does not carry the snapshot")
	}
}

// TestPreviewSnapshotPure: the preview composition must behave like the
// pure stages it is built from — same detections as a real close of the same
// snapshot, and zero pipeline mutation (no history commit, no calibration
// day consumed) no matter how often it runs.
func TestPreviewSnapshotPure(t *testing.T) {
	p, day, visits := stageFixture()
	stats := normalize.ProxyStats{Records: len(visits), Kept: len(visits)}
	for trial := 0; trial < 3; trial++ {
		snap := p.stageSnapshot(day, visits)
		rep := p.PreviewSnapshot(day, snap, stats, 1+trial)
		if !rep.Calibrating {
			t.Fatal("untrained preview must report Calibrating")
		}
		if len(rep.Automated) != 1 || rep.Automated[0].Domain != "beacon.example" {
			t.Fatalf("trial %d: preview automated = %+v", trial, rep.Automated)
		}
		if rep.CC != nil || rep.NoHint != nil || rep.SOCHints != nil {
			t.Fatal("untrained preview must not score or propagate")
		}
		if p.History().DomainCount() != 0 {
			t.Fatal("PreviewSnapshot mutated the history")
		}
		if st := p.ExportCalibration(); st.CalDays != 0 || len(st.CCExamples) != 0 {
			t.Fatalf("PreviewSnapshot consumed calibration state: %+v", st)
		}
	}
}

// TestStagePropagateUntrained: stageScore/stagePropagate are only entered
// once the models exist; with no C&C seeds and no IOC hook the propagate
// stage is a pair of nils, not a panic.
func TestStagePropagateUntrainedSeedless(t *testing.T) {
	p, day, visits := stageFixture()
	snap := p.stageSnapshot(day, visits)
	noHint, soc := p.stagePropagate(snap, nil, p.cfg.Workers)
	if noHint != nil || soc != nil {
		t.Fatalf("seedless propagate = %v/%v, want nil/nil", noHint, soc)
	}
}

// TestStarvedCalibrationKeepsCalibrating: a fit that cannot be made yet is
// not a failed day. With a one-day window and one beaconing domain a day,
// the C&C regression lacks examples for several days past twice the window;
// every one of those closes must report the day Calibrating and count it,
// and the pipeline must train on the first day its examples suffice.
func TestStarvedCalibrationKeepsCalibrating(t *testing.T) {
	p := NewEnterprise(EnterpriseConfig{CalibrationDays: 1, Workers: 1}, whois.NewRegistry(),
		func(string, time.Time) bool { return false }, nil)
	first := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	process := func(i int) EnterpriseDayReport {
		day := first.AddDate(0, 0, i)
		var visits []logs.Visit
		for k := 0; k < 40; k++ {
			visits = append(visits, logs.Visit{
				Time: day.Add(time.Duration(k) * 10 * time.Minute),
				Host: "victim", Domain: fmt.Sprintf("beacon-%d.example", i),
			})
		}
		stats := normalize.ProxyStats{Records: len(visits), Kept: len(visits)}
		return p.ProcessSnapshot(day, p.stageSnapshot(day, visits), stats)
	}
	days := 0
	for ; !p.Trained(); days++ {
		if days == 30 {
			t.Fatalf("still calibrating after %d days", days)
		}
		rep := process(days)
		if !rep.Calibrating || rep.CC != nil || rep.NoHint != nil {
			t.Fatalf("day %d: report %+v, want a calibrating day without detections", days, rep)
		}
		st := p.ExportCalibration()
		if st.CalDays != days+1 || len(st.CCExamples) != days+1 {
			t.Fatalf("day %d: %d calibration days and %d C&C examples, want %d of each",
				days, st.CalDays, len(st.CCExamples), days+1)
		}
		// The examples suffice when the C&C regression fits on them (the
		// similarity side falls back to the additive scorer after two
		// windows); the pipeline must train exactly then.
		_, err := ccdetect.NewDetector(p.extractor).Train(st.CCExamples)
		if p.Trained() != (err == nil) {
			t.Fatalf("day %d: trained=%v but a C&C fit on its %d examples gives %v",
				days, p.Trained(), len(st.CCExamples), err)
		}
	}
	if days <= 2*p.Config().CalibrationDays {
		t.Fatalf("trained after %d days: the fixture no longer starves calibration past two windows", days)
	}
	t.Logf("trained on calibration day %d", days)
	if rep := process(days); rep.Calibrating {
		t.Fatal("the day after training still calibrating")
	}
}
