// Command quickstart is the smallest end-to-end use of the library: build
// a synthetic enterprise dataset, train the pipeline on the bootstrap
// period, run daily detection, and print what it found.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// A small synthetic enterprise: 50 hosts, one week of profiling,
	// two weeks of operation with a handful of injected campaigns.
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: 42, TrainingDays: 7, OperationDays: 14,
		Hosts: 50, PopularDomains: 80, NewRarePerDay: 15,
		BenignAutoPerDay: 3, Campaigns: 8,
	})

	// Simulated externals: WHOIS and a VirusTotal/IOC oracle built from
	// the generator's ground truth.
	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: 42})

	// The pipeline: profiling month -> calibration -> daily operation.
	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 5},
		reg, oracle.Reported, oracle.IOCs)

	for day := 0; day < g.Config().TrainingDays; day++ {
		p.Train(g.DayTime(day), g.Day(day), g.DHCPMap(day))
	}
	fmt.Printf("profiled %d destinations over %d days\n",
		p.History().DomainCount(), g.Config().TrainingDays)

	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		rep := p.Process(date, g.Day(day), g.DHCPMap(day))
		if rep.Calibrating {
			fmt.Printf("%s  calibrating (%d rare destinations)\n",
				date.Format("2006-01-02"), rep.RareCount)
			continue
		}
		fmt.Printf("%s  rare=%d automated=%d\n",
			date.Format("2006-01-02"), rep.RareCount, len(rep.Automated))
		for _, ad := range rep.CC {
			truth := "NEW"
			if g.Truth.IsMalicious(ad.Domain) {
				truth = "malicious (ground truth)"
			}
			fmt.Printf("    C&C  %-40s score=%.2f period=%.0fs hosts=%v  [%s]\n",
				ad.Domain, ad.Score, ad.Period(), ad.AutoHosts, truth)
		}
		if rep.NoHint != nil {
			for _, d := range rep.NoHint.Detections {
				fmt.Printf("    BP   %-40s via %s (score=%.2f) hosts=%v\n",
					d.Domain, d.Reason, d.Score, d.Hosts)
			}
		}
	}
}
