// Command ccdetect demonstrates the no-hint C&C detector on the scenario
// the paper emphasizes: a *single* compromised host beaconing to a C&C
// server hidden inside a day of ordinary enterprise traffic. It walks
// through the detector's stages — rare-destination reduction, dynamic
// histogram periodicity analysis, feature extraction and regression
// scoring — printing the intermediate evidence for each automated domain.
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro"
)

func main() {
	seed := flag.Int64("seed", 19, "dataset seed")
	flag.Parse()
	run(*seed)
}

func run(seed int64) {
	// Force single-host campaigns: the hardest case for prior systems
	// that need multiple synchronized infected hosts.
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: seed, TrainingDays: 7, OperationDays: 20,
		Hosts: 60, PopularDomains: 80, NewRarePerDay: 15,
		BenignAutoPerDay: 4, Campaigns: 14, MaxHostsPerCampaign: 1,
	})
	reg := repro.NewWHOISRegistry()
	repro.PopulateWHOIS(reg, g.Truth, g.RareRegistrations(), g.DayTime(g.NumDays()))
	oracle := repro.NewIntelOracle()
	repro.PopulateOracle(oracle, g.Truth, repro.OracleConfig{Seed: seed})

	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{CalibrationDays: 8},
		reg, oracle.Reported, nil)
	for day := 0; day < g.Config().TrainingDays; day++ {
		p.Train(g.DayTime(day), g.Day(day), g.DHCPMap(day))
	}

	caught, missed := 0, 0
	for day := g.Config().TrainingDays; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		rep := p.Process(date, g.Day(day), g.DHCPMap(day))
		if rep.Calibrating {
			continue
		}
		camps := g.Truth.CampaignsOn(date)
		if len(rep.Automated) > 0 {
			fmt.Printf("== %s: %d automated rare domains ==\n", date.Format("2006-01-02"), len(rep.Automated))
			ads := rep.Automated
			sort.Slice(ads, func(i, j int) bool { return ads[i].Score > ads[j].Score })
			for _, ad := range ads {
				f := ad.Features
				marker := " "
				if g.Truth.IsMalicious(ad.Domain) {
					marker = "*"
				}
				fmt.Printf(" %s %-42s score=%5.2f period=%6.0fs hosts=%d noref=%.2f rareUA=%.2f age=%5.2fy\n",
					marker, ad.Domain, ad.Score, ad.Period(), ad.Activity.NumHosts(), f.NoRef, f.RareUA, f.DomAge)
			}
		}
		for _, c := range camps {
			hit := false
			for _, ad := range rep.CC {
				if ad.Domain == c.CCDomain {
					hit = true
				}
			}
			if hit {
				caught++
				fmt.Printf("  -> caught single-host C&C %s (campaign %s)\n", c.CCDomain, c.ID)
			} else {
				missed++
				fmt.Printf("  -> MISSED C&C %s (campaign %s)\n", c.CCDomain, c.ID)
			}
		}
	}
	fmt.Printf("\nsingle-host C&C channels: %d caught, %d missed\n", caught, missed)
	fmt.Println("(* = malicious per ground truth)")
}
