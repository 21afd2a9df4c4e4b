package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// Figure2Point is one day of the data-reduction series (Figure 2).
type Figure2Point struct {
	Day           time.Time
	All           int
	AfterInternal int
	AfterServers  int
	New           int
	Rare          int
}

// Figure2 reproduces Figure 2: the number of distinct domains per day
// after each reduction step, over the first week of March operation days.
func Figure2(run *LANLRun) ([]Figure2Point, *Table) {
	var reps []pipeline.LANLDayReport
	for _, c := range run.Gen.Truth.Campaigns {
		reps = append(reps, run.ChallengeReports[c.ID])
	}
	reps = append(reps, run.QuietReports...)
	sort.Slice(reps, func(i, j int) bool { return reps[i].Day.Before(reps[j].Day) })

	var points []Figure2Point
	for _, rep := range reps {
		if len(points) >= 7 {
			break
		}
		points = append(points, Figure2Point{
			Day:           rep.Day,
			All:           rep.Stats.DomainsAll,
			AfterInternal: rep.Stats.DomainsAfterInternal,
			AfterServers:  rep.Stats.DomainsAfterServers,
			New:           rep.NewCount,
			Rare:          rep.RareCount,
		})
	}

	t := &Table{
		Title:   "Figure 2: domains per day after each reduction step (first operation week)",
		Headers: []string{"Day", "All", "Filter internal queries", "Filter internal servers", "New destinations", "Rare destinations"},
	}
	for _, p := range points {
		t.AddRow(p.Day.Format("01-02"),
			fmt.Sprintf("%d", p.All), fmt.Sprintf("%d", p.AfterInternal),
			fmt.Sprintf("%d", p.AfterServers), fmt.Sprintf("%d", p.New), fmt.Sprintf("%d", p.Rare))
	}
	return points, t
}

// Figure3Result carries the two interval distributions of Figure 3.
type Figure3Result struct {
	MalMal   *CDF // first-visit intervals between two malicious domains
	MalLegit *CDF // between a malicious and a legitimate rare domain
}

// Figure3 reproduces Figure 3: the CDFs of the time difference between a
// compromised host's first connections to two malicious domains versus a
// malicious and a legitimate domain, measured on the training attacks.
func Figure3(run *LANLRun) (Figure3Result, *Table) {
	var malMal, malLegit []float64
	for _, c := range run.Gen.Truth.Campaigns {
		if !gen.LANLTrainingAttackDays[c.Day.Day()] {
			continue
		}
		rep := run.ChallengeReports[c.ID]
		for _, hip := range campaignHostIPs(run, c) {
			// First visits of this host to each rare domain today.
			type fv struct {
				domain string
				t      time.Time
				mal    bool
			}
			var visits []fv
			for _, d := range rep.Snapshot.HostRare(hip) {
				da := rep.Snapshot.Rare[d]
				visits = append(visits, fv{d, da.Host(hip).First(), run.Gen.Truth.IsMalicious(d)})
			}
			for i := 0; i < len(visits); i++ {
				for j := i + 1; j < len(visits); j++ {
					iv := math.Abs(visits[i].t.Sub(visits[j].t).Seconds())
					switch {
					case visits[i].mal && visits[j].mal:
						malMal = append(malMal, iv)
					case visits[i].mal != visits[j].mal:
						malLegit = append(malLegit, iv)
					}
				}
			}
		}
	}
	res := Figure3Result{MalMal: NewCDF(malMal), MalLegit: NewCDF(malLegit)}

	t := &Table{
		Title:   "Figure 3: CDF of first-visit intervals for domain pairs by the same host",
		Headers: []string{"Interval (s)", "P(mal,mal)", "P(mal,legit)"},
	}
	for _, x := range []float64{10, 60, 160, 600, 3600, 10000, 43200, 70000} {
		t.AddRow(fmt.Sprintf("%.0f", x), fmt.Sprintf("%.3f", res.MalMal.At(x)), fmt.Sprintf("%.3f", res.MalLegit.At(x)))
	}
	return res, t
}

// Figure4Result is the belief propagation trace of one case-3 campaign.
type Figure4Result struct {
	Campaign *gen.Campaign
	Result   *core.Result
	DOT      string
}

// Figure4 reproduces Figure 4: the iteration-by-iteration application of
// belief propagation to a case-3 campaign (the paper shows 3/19), plus the
// community rendered as DOT.
func Figure4(run *LANLRun) (Figure4Result, *Table) {
	var campaign *gen.Campaign
	for _, c := range run.Gen.Truth.Campaigns {
		if c.Case == 3 && c.Day.Day() == 19 {
			campaign = c
		}
	}
	if campaign == nil { // fall back to any case-3 campaign
		for _, c := range run.Gen.Truth.Campaigns {
			if c.Case == 3 {
				campaign = c
				break
			}
		}
	}
	rep := run.ChallengeReports[campaign.ID]
	res := Figure4Result{Campaign: campaign, Result: rep.Result}

	g := dot.NewGraph("figure4_" + campaign.ID)
	for _, hip := range run.HintIPs(campaign) {
		g.AddNode(hip, dot.KindSeed)
	}
	if rep.Result != nil {
		for _, d := range rep.Result.Detections {
			kind := dot.KindNew
			if run.Gen.Truth.IsMalicious(d.Domain) {
				kind = dot.KindSOC
			}
			g.AddNode(d.Domain, kind)
			for _, h := range d.Hosts {
				if g.NodeCount() == 0 {
					continue
				}
				label := ""
				if d.Reason == core.ReasonCC {
					label = "beacon"
				}
				g.AddNode(h, dot.KindHost)
				g.AddEdge(h, d.Domain, label)
			}
		}
	}
	res.DOT = g.String()

	t := &Table{
		Title:   fmt.Sprintf("Figure 4: belief propagation trace on campaign %s", campaign.ID),
		Headers: []string{"Iter", "Domain", "Reason", "Score", "Hosts"},
	}
	if rep.Result != nil {
		for _, d := range rep.Result.Detections {
			t.AddRow(fmt.Sprintf("%d", d.Iteration), d.Domain, d.Reason.String(),
				fmt.Sprintf("%.2f", d.Score), strings.Join(d.Hosts, " "))
		}
	}
	return res, t
}

// Figure5Result carries the score distributions of Figure 5.
type Figure5Result struct {
	Reported   *CDF
	Legitimate *CDF
}

// Figure5 reproduces Figure 5: the CDFs of C&C regression scores for
// automated domains labeled reported vs legitimate by the intelligence
// oracle (computed on the calibration examples, as in §VI-A).
func Figure5(run *EnterpriseRun) (Figure5Result, *Table) {
	det := run.Pipe.Detector()
	var reported, legit []float64
	for _, ex := range run.Pipe.CCExamples() {
		v, err := det.Model.Predict(ex.Features.Vector(det.WithAutoHosts))
		if err != nil {
			continue
		}
		if ex.Reported {
			reported = append(reported, v)
		} else {
			legit = append(legit, v)
		}
	}
	res := Figure5Result{Reported: NewCDF(reported), Legitimate: NewCDF(legit)}

	t := &Table{
		Title:   "Figure 5: CDFs of automated-domain scores (reported vs legitimate)",
		Headers: []string{"Score", "P(reported <= s)", "P(legitimate <= s)"},
	}
	for _, s := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		t.AddRow(fmt.Sprintf("%.1f", s),
			fmt.Sprintf("%.3f", res.Reported.At(s)), fmt.Sprintf("%.3f", res.Legitimate.At(s)))
	}
	return res, t
}

// SweepPoint is one threshold of a Figure 6 sweep.
type SweepPoint struct {
	Threshold float64
	Breakdown Breakdown
}

// Figure6a reproduces Figure 6(a): detected C&C domains by category as the
// automated-domain score threshold sweeps 0.40-0.48.
func Figure6a(run *EnterpriseRun) ([]SweepPoint, *Table) {
	thresholds := []float64{0.40, 0.42, 0.44, 0.45, 0.46, 0.48}
	points := make([]SweepPoint, 0, len(thresholds))
	for _, thr := range thresholds {
		seen := map[string]bool{}
		for _, rep := range run.OperationReports() {
			for _, ad := range rep.Automated {
				if ad.Score >= thr {
					seen[ad.Domain] = true
				}
			}
		}
		points = append(points, SweepPoint{thr, run.BreakdownOf(keys(seen))})
	}
	return points, sweepTable("Figure 6(a): detected C&C domains vs score threshold", points)
}

// Figure6b reproduces Figure 6(b): the no-hint belief propagation output
// as the similarity threshold sweeps 0.33-0.85. The paper fixes the C&C
// threshold at 0.40; here the seeds are each day's C&C list, rep.CC, scored
// at the Tc the pipeline selected on its calibration days (RunEnterprise
// sets no CCThreshold), so the sweep is not at the paper's operating point.
func Figure6b(run *EnterpriseRun) ([]SweepPoint, *Table) {
	return sweepBP(run, []float64{0.33, 0.50, 0.65, 0.75, 0.85}, false,
		"Figure 6(b): no-hint detections vs similarity threshold")
}

// Figure6c reproduces Figure 6(c): the SOC-hints belief propagation output
// (seeded from the IOC list, seeds excluded from results) as the
// similarity threshold sweeps 0.33-0.45.
func Figure6c(run *EnterpriseRun) ([]SweepPoint, *Table) {
	return sweepBP(run, []float64{0.33, 0.37, 0.40, 0.41, 0.45}, true,
		"Figure 6(c): SOC-hints detections vs similarity threshold")
}

func sweepBP(run *EnterpriseRun, thresholds []float64, socMode bool, title string) ([]SweepPoint, *Table) {
	sim := run.Pipe.SimilarityScorer()
	points := make([]SweepPoint, 0, len(thresholds))
	for _, thr := range thresholds {
		seen := map[string]bool{}
		for _, rep := range run.OperationReports() {
			ccSet := make(core.CCSet, len(rep.CC))
			for _, ad := range rep.CC {
				ccSet[ad.Domain] = true
			}
			var seeds []string
			if socMode {
				for _, ioc := range run.Oracle.IOCs() {
					if _, ok := rep.Snapshot.Rare[ioc]; ok {
						seeds = append(seeds, ioc)
					}
				}
				sort.Strings(seeds)
			} else {
				for _, ad := range rep.CC {
					seeds = append(seeds, ad.Domain)
					seen[ad.Domain] = true // C&C seeds count as detections in no-hint mode
				}
			}
			if len(seeds) == 0 {
				continue
			}
			res := core.BeliefPropagation(rep.Snapshot, nil, seeds, ccSet, sim,
				core.Config{ScoreThreshold: thr, MaxIterations: 10})
			for _, d := range res.Domains() {
				seen[d] = true
			}
		}
		points = append(points, SweepPoint{thr, run.BreakdownOf(keys(seen))})
	}
	return points, sweepTable(title, points)
}

func sweepTable(title string, points []SweepPoint) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Threshold", "VT+SOC", "New malicious", "Suspicious", "Legitimate", "Total", "TDR", "NDR"},
	}
	for _, p := range points {
		b := p.Breakdown
		t.AddRow(fmt.Sprintf("%.2f", p.Threshold),
			fmt.Sprintf("%d", b.KnownMalicious), fmt.Sprintf("%d", b.NewMalicious),
			fmt.Sprintf("%d", b.Suspicious), fmt.Sprintf("%d", b.Legitimate),
			fmt.Sprintf("%d", b.Detected()), Pct(b.TDR()), Pct(b.NDR()))
	}
	return t
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CommunityResult is a rendered community example (Figures 7 and 8).
type CommunityResult struct {
	Day     time.Time
	Seeds   []string
	Domains []string
	Hosts   []string
	DOT     string
}

// Figure7 reproduces Figure 7: an example community detected in no-hint
// mode — the first operation day whose no-hint run expanded beyond its C&C
// seeds.
func Figure7(run *EnterpriseRun) (CommunityResult, *Table) {
	for _, rep := range run.OperationReports() {
		if rep.NoHint == nil || len(rep.NoHint.Detections) == 0 || len(rep.CC) == 0 {
			continue
		}
		var seeds []string
		for _, ad := range rep.CC {
			seeds = append(seeds, ad.Domain)
		}
		return renderCommunity(run, rep.Day, seeds, rep.NoHint,
			fmt.Sprintf("Figure 7: no-hint community on %s", rep.Day.Format("1/2")))
	}
	return CommunityResult{}, &Table{Title: "Figure 7: no community found"}
}

// Figure8 reproduces Figure 8: an example community detected in SOC-hints
// mode, seeded from the IOC list.
func Figure8(run *EnterpriseRun) (CommunityResult, *Table) {
	for _, rep := range run.OperationReports() {
		if rep.SOCHints == nil || len(rep.SOCHints.Detections) == 0 {
			continue
		}
		var seeds []string
		for _, ioc := range run.Oracle.IOCs() {
			if _, ok := rep.Snapshot.Rare[ioc]; ok {
				seeds = append(seeds, ioc)
			}
		}
		sort.Strings(seeds)
		return renderCommunity(run, rep.Day, seeds, rep.SOCHints,
			fmt.Sprintf("Figure 8: SOC-hints community on %s", rep.Day.Format("1/2")))
	}
	return CommunityResult{}, &Table{Title: "Figure 8: no community found"}
}

func renderCommunity(run *EnterpriseRun, day time.Time, seeds []string, res *core.Result, title string) (CommunityResult, *Table) {
	g := dot.NewGraph(strings.ReplaceAll(title, " ", "_"))
	out := CommunityResult{Day: day, Seeds: seeds, Hosts: res.Hosts}
	for _, s := range seeds {
		g.AddNode(s, dot.KindSeed)
	}
	t := &Table{Title: title, Headers: []string{"Domain", "Validation", "Reason", "Hosts"}}
	for _, d := range res.Detections {
		out.Domains = append(out.Domains, d.Domain)
		var kind dot.NodeKind
		verdict := run.Classify(d.Domain)
		switch verdict.String() {
		case "known-malicious":
			kind = dot.KindIntel
			if run.Oracle.IsIOC(d.Domain) {
				kind = dot.KindSOC
			}
		case "new-malicious", "suspicious":
			kind = dot.KindNew
		default:
			kind = dot.KindNew
		}
		g.AddNode(d.Domain, kind)
		label := ""
		if d.Reason == core.ReasonCC {
			label = "beacon"
		}
		for _, h := range d.Hosts {
			g.AddNode(h, dot.KindHost)
			g.AddEdge(h, d.Domain, label)
		}
		t.AddRow(d.Domain, verdict.String(), d.Reason.String(), strings.Join(d.Hosts, " "))
	}
	out.DOT = g.String()
	return out, t
}
