package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/histogram"
	"repro/internal/pipeline"
)

// Table1 reproduces Table I: the four LANL challenge cases with their
// attack dates and hint structure, as realized by the generator schedule.
func Table1(run *LANLRun) *Table {
	t := &Table{
		Title:   "Table I: the four cases in the LANL challenge problem",
		Headers: []string{"Case", "Description", "Campaign days (March)", "Hint hosts"},
	}
	desc := map[int]string{
		1: "From one hint host detect the contacted malicious domains",
		2: "From a set of hint hosts detect the contacted malicious domains",
		3: "From one hint host detect malicious domains and other compromised hosts",
		4: "Detect malicious domains and compromised hosts without hint",
	}
	hints := map[int]string{1: "One per day", 2: "Three or four per day", 3: "One per day", 4: "No hints"}
	byCase := map[int][]string{}
	for _, c := range run.Gen.Truth.Campaigns {
		byCase[c.Case] = append(byCase[c.Case], c.Day.Format("1/2"))
	}
	for cs := 1; cs <= 4; cs++ {
		days := byCase[cs]
		sort.Slice(days, func(i, j int) bool {
			var a, b int
			fmt.Sscanf(days[i], "3/%d", &a)
			fmt.Sscanf(days[j], "3/%d", &b)
			return a < b
		})
		t.AddRow(fmt.Sprintf("%d", cs), desc[cs], strings.Join(days, ", "), hints[cs])
	}
	return t
}

// Table2Row is one parameterization of the dynamic histogram (Table II).
type Table2Row struct {
	BinWidth       float64
	Threshold      float64
	MaliciousTrain int // malicious automated (host,domain) pairs, training attacks
	MaliciousTest  int // same, testing attacks
	AllTestPairs   int // all automated pairs across testing days
}

// Table2 reproduces Table II: the number of malicious automated
// (host, domain) pairs captured in the training and testing attack sets,
// and the total automated pair population over the testing days, for each
// bin width W and Jeffrey threshold JT.
func Table2(run *LANLRun) ([]Table2Row, *Table) {
	type param struct{ w, jt float64 }
	params := []param{
		{5, 0.0}, {5, 0.034}, {5, 0.06}, {5, 0.35},
		{10, 0.0}, {10, 0.034}, {10, 0.06},
		{20, 0.0}, {20, 0.034}, {20, 0.06},
	}

	// Ground truth: the automated malicious pairs are the (host, C&C
	// domain) pairs of each campaign.
	type pair struct{ host, domain string }
	malTrain := map[pair]bool{}
	malTest := map[pair]bool{}
	for _, c := range run.Gen.Truth.Campaigns {
		training := gen.LANLTrainingAttackDays[c.Day.Day()]
		for _, hip := range campaignHostIPs(run, c) {
			p := pair{hip, c.CCDomain}
			if training {
				malTrain[p] = true
			} else {
				malTest[p] = true
			}
		}
	}

	// Gather per-pair interval series from the stored snapshots.
	type series struct {
		p   pair
		ivs []float64
	}
	var trainSeries, testSeries []series
	collect := func(rep pipeline.LANLDayReport, dst *[]series) {
		for d, da := range rep.Snapshot.Rare {
			for _, ha := range da.Hosts {
				if len(ha.Times) < 2 {
					continue
				}
				*dst = append(*dst, series{pair{ha.Host, d}, histogram.Intervals(ha.Times)})
			}
		}
	}
	for _, c := range run.Gen.Truth.Campaigns {
		rep := run.ChallengeReports[c.ID]
		if gen.LANLTrainingAttackDays[c.Day.Day()] {
			collect(rep, &trainSeries)
		} else {
			collect(rep, &testSeries)
		}
	}
	for _, rep := range run.QuietReports {
		collect(rep, &testSeries)
	}

	rows := make([]Table2Row, 0, len(params))
	for _, pm := range params {
		cfg := histogram.Config{BinWidth: pm.w, Threshold: pm.jt}
		row := Table2Row{BinWidth: pm.w, Threshold: pm.jt}
		for _, s := range trainSeries {
			if malTrain[s.p] && histogram.Analyze(s.ivs, cfg).Automated {
				row.MaliciousTrain++
			}
		}
		for _, s := range testSeries {
			if !histogram.Analyze(s.ivs, cfg).Automated {
				continue
			}
			row.AllTestPairs++
			if malTest[s.p] {
				row.MaliciousTest++
			}
		}
		rows = append(rows, row)
	}

	t := &Table{
		Title:   "Table II: automated (host, domain) pairs vs bin width W and Jeffrey threshold JT",
		Headers: []string{"W (s)", "JT", "Malicious pairs (train)", "Malicious pairs (test)", "All automated pairs (test days)"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f", r.BinWidth),
			fmt.Sprintf("%.3f", r.Threshold),
			fmt.Sprintf("%d", r.MaliciousTrain),
			fmt.Sprintf("%d", r.MaliciousTest),
			fmt.Sprintf("%d", r.AllTestPairs),
		)
	}
	return rows, t
}

func campaignHostIPs(run *LANLRun, c *gen.Campaign) []string {
	out := make([]string, 0, len(c.Hosts))
	for _, hn := range c.Hosts {
		var idx int
		fmt.Sscanf(hn, "host%04d", &idx)
		out = append(out, run.Gen.HostIP(idx).String())
	}
	return out
}

// Table3Result carries the per-case tallies of Table III.
type Table3Result struct {
	// PerCase[case] holds {train, test} confusions.
	Train map[int]Confusion
	Test  map[int]Confusion
}

// Totals returns the overall confusion across cases and splits.
func (r Table3Result) Totals() Confusion {
	var c Confusion
	for _, v := range r.Train {
		c.Add(v)
	}
	for _, v := range r.Test {
		c.Add(v)
	}
	return c
}

// Table3 reproduces Table III: true/false positives and false negatives per
// challenge case, split into the paper's training and testing attack sets,
// plus the overall TDR/FDR/FNR summary.
func Table3(run *LANLRun) (Table3Result, *Table) {
	res := Table3Result{Train: map[int]Confusion{}, Test: map[int]Confusion{}}
	for _, c := range run.Gen.Truth.Campaigns {
		rep := run.ChallengeReports[c.ID]
		var detected []string
		if rep.Result != nil {
			detected = rep.Result.Domains()
		}
		conf := Tally(detected, run.Gen.Truth.IsMalicious, c.Domains())
		if gen.LANLTrainingAttackDays[c.Day.Day()] {
			cur := res.Train[c.Case]
			cur.Add(conf)
			res.Train[c.Case] = cur
		} else {
			cur := res.Test[c.Case]
			cur.Add(conf)
			res.Test[c.Case] = cur
		}
	}

	t := &Table{
		Title:   "Table III: results on the LANL challenge",
		Headers: []string{"Case", "TP train", "TP test", "FP train", "FP test", "FN train", "FN test"},
	}
	var totTrain, totTest Confusion
	for cs := 1; cs <= 4; cs++ {
		tr, te := res.Train[cs], res.Test[cs]
		totTrain.Add(tr)
		totTest.Add(te)
		trTP := fmt.Sprintf("%d", tr.TruePositives)
		if cs == 4 {
			trTP = "-" // case 4 was simulated on a single (testing) day
		}
		t.AddRow(fmt.Sprintf("Case %d", cs),
			trTP, fmt.Sprintf("%d", te.TruePositives),
			dashIf(cs == 4, tr.FalsePositives), fmt.Sprintf("%d", te.FalsePositives),
			dashIf(cs == 4, tr.FalseNegatives), fmt.Sprintf("%d", te.FalseNegatives))
	}
	t.AddRow("Total",
		fmt.Sprintf("%d", totTrain.TruePositives), fmt.Sprintf("%d", totTest.TruePositives),
		fmt.Sprintf("%d", totTrain.FalsePositives), fmt.Sprintf("%d", totTest.FalsePositives),
		fmt.Sprintf("%d", totTrain.FalseNegatives), fmt.Sprintf("%d", totTest.FalseNegatives))

	tot := res.Totals()
	t.AddRow("", "", "", "", "", "", "")
	t.AddRow("Overall", "TDR "+Pct(tot.TDR()), "FDR "+Pct(tot.FDR()), "FNR "+Pct(tot.FNR()), "", "", "")
	return res, t
}

func dashIf(cond bool, v int) string {
	if cond {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
