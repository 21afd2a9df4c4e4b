package eval

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/intel"
	"repro/internal/pipeline"
	"repro/internal/whois"
)

// Scale selects the size of the synthetic datasets the experiments run on.
type Scale int

// Scales.
const (
	// ScaleSmall runs in well under a second per experiment; used by unit
	// tests.
	ScaleSmall Scale = iota + 1
	// ScaleFull approximates the paper's two-month windows at laptop
	// volume; used by the benchmark harness and cmd/benchreport.
	ScaleFull
)

// LANLScale returns the generator configuration for a scale.
func LANLScale(s Scale, seed int64) gen.LANLConfig {
	switch s {
	case ScaleFull:
		return gen.LANLConfig{Seed: seed}
	default:
		return gen.LANLConfig{
			Seed: seed, Hosts: 60, Servers: 4, PopularDomains: 80,
			NewRarePerDay: 15, BenignAutoPerDay: 3, QueriesPerHostDay: 20,
		}
	}
}

// EnterpriseScale returns the generator configuration for a scale.
func EnterpriseScale(s Scale, seed int64) gen.EnterpriseConfig {
	switch s {
	case ScaleFull:
		return gen.EnterpriseConfig{Seed: seed}
	default:
		return gen.EnterpriseConfig{
			Seed: seed, TrainingDays: 6, OperationDays: 16,
			Hosts: 60, PopularDomains: 80, NewRarePerDay: 20,
			BenignAutoPerDay: 4, Campaigns: 14,
		}
	}
}

// LANLRun is a complete LANL pipeline execution with per-day artifacts
// kept for the experiment drivers.
type LANLRun struct {
	Gen  *gen.LANL
	Pipe *pipeline.LANL
	// TrainingReports holds one report per profiling day.
	TrainingReports []pipeline.LANLDayReport
	// ChallengeReports maps campaign ID to the day report of its attack
	// day (processed with the case's hints).
	ChallengeReports map[string]pipeline.LANLDayReport
	// QuietReports holds reports for operation days without campaigns.
	QuietReports []pipeline.LANLDayReport
}

// HintIPs maps a campaign's hint host names to the IP identities used in
// the DNS visit stream.
func (r *LANLRun) HintIPs(c *gen.Campaign) []string {
	out := make([]string, 0, len(c.HintHosts))
	for _, hn := range c.HintHosts {
		var idx int
		fmt.Sscanf(hn, "host%04d", &idx)
		out = append(out, r.Gen.HostIP(idx).String())
	}
	return out
}

// RunLANL executes the full train-then-challenge flow on a fresh synthetic
// LANL dataset.
func RunLANL(scale Scale, seed int64) *LANLRun {
	g := gen.NewLANL(LANLScale(scale, seed))
	p := pipeline.NewLANL(pipeline.LANLConfig{})
	run := &LANLRun{Gen: g, Pipe: p, ChallengeReports: make(map[string]pipeline.LANLDayReport)}

	for day := 0; day < g.Config().TrainingDays; day++ {
		run.TrainingReports = append(run.TrainingReports, p.Train(g.DayTime(day), g.Day(day)))
	}
	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		camps := g.Truth.CampaignsOn(date)
		if len(camps) == 0 {
			run.QuietReports = append(run.QuietReports, p.Process(date, g.Day(day), nil))
			continue
		}
		c := camps[0]
		run.ChallengeReports[c.ID] = p.Process(date, g.Day(day), run.HintIPs(c))
	}
	return run
}

// EnterpriseRun is a complete enterprise pipeline execution.
type EnterpriseRun struct {
	Gen    *gen.Enterprise
	Oracle *intel.Oracle
	WHOIS  *whois.Registry
	Pipe   *pipeline.Enterprise
	// Reports holds one report per operation day (calibration days
	// included, flagged Calibrating).
	Reports []pipeline.EnterpriseDayReport
}

// RunEnterprise executes training, calibration and daily operation on a
// fresh synthetic enterprise dataset.
func RunEnterprise(scale Scale, seed int64) *EnterpriseRun {
	return RunEnterpriseWorkers(scale, seed, 0)
}

// RunEnterpriseWorkers is RunEnterprise with the day-close worker pool
// pinned (0 = GOMAXPROCS, 1 = sequential); results are identical for
// every value.
func RunEnterpriseWorkers(scale Scale, seed int64, workers int) *EnterpriseRun {
	e := gen.NewEnterprise(EnterpriseScale(scale, seed))
	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, e.Truth, e.RareRegistrations(), e.DayTime(e.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, e.Truth, gen.OracleConfig{Seed: seed})

	calDays := 7
	if scale == ScaleFull {
		calDays = 14
	}
	p := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: calDays, Workers: workers},
		reg, oracle.Reported, oracle.IOCs)

	run := &EnterpriseRun{Gen: e, Oracle: oracle, WHOIS: reg, Pipe: p}
	for day := 0; day < e.Config().TrainingDays; day++ {
		p.Train(e.DayTime(day), e.Day(day), e.DHCPMap(day))
	}
	for day := e.Config().TrainingDays; day < e.NumDays(); day++ {
		run.Reports = append(run.Reports, p.Process(e.DayTime(day), e.Day(day), e.DHCPMap(day)))
	}
	return run
}

// OperationReports returns the post-calibration day reports.
func (r *EnterpriseRun) OperationReports() []pipeline.EnterpriseDayReport {
	var out []pipeline.EnterpriseDayReport
	for _, rep := range r.Reports {
		if !rep.Calibrating {
			out = append(out, rep)
		}
	}
	return out
}

// ValidateAt is the validation instant used for breakdowns: three months
// after the end of the dataset, matching §VI-B.
func (r *EnterpriseRun) ValidateAt() time.Time {
	return r.Gen.DayTime(r.Gen.NumDays()).AddDate(0, 3, 0)
}

// Classify validates a detected domain into the paper's categories.
func (r *EnterpriseRun) Classify(domain string) intel.Verdict {
	return r.Oracle.Validate(domain, r.ValidateAt())
}

// BreakdownOf tallies a detection list into the §VI-B categories.
func (r *EnterpriseRun) BreakdownOf(domains []string) Breakdown {
	var b Breakdown
	for _, d := range domains {
		switch r.Classify(d) {
		case intel.VerdictKnownMalicious:
			b.KnownMalicious++
		case intel.VerdictNewMalicious:
			b.NewMalicious++
		case intel.VerdictSuspicious:
			b.Suspicious++
		default:
			b.Legitimate++
		}
	}
	return b
}
