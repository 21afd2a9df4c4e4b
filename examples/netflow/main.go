// Command netflow demonstrates the framework's data-source generality
// (§II-C): the same profiling, rare-destination reduction, periodicity
// detection and belief propagation run on NetFlow records — no URLs, no
// user-agent strings, no domain names — with the destination IP address
// standing in for the folded domain. C&C beaconing survives the projection
// to flow 5-tuples, so campaigns are still caught.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	seed := flag.Int64("seed", 29, "dataset seed")
	flag.Parse()
	if err := run(*seed); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64) error {
	g := repro.NewEnterpriseGenerator(repro.EnterpriseGeneratorConfig{
		Seed: seed, TrainingDays: 7, OperationDays: 14,
		Hosts: 50, PopularDomains: 80, NewRarePerDay: 12,
		BenignAutoPerDay: 3, Campaigns: 8,
	})

	hist := repro.NewHistory()
	// Flow data carries no HTTP features and real implants are not
	// phase-locked across hosts, so the seed heuristic here is
	// "automated connections from at least two distinct hosts" — domain
	// connectivity plus periodicity, the two features §V-B combines.
	det := flowDetector{}
	scorer := repro.AdditiveScorer{}

	caught, total := 0, 0
	for day := 0; day < g.NumDays(); day++ {
		date := g.DayTime(day)
		visits, stats := repro.ReduceFlows(g.FlowDay(day), g.DHCPMap(day))
		snap := repro.NewSnapshot(date, visits, hist, 10)

		if day >= g.Config().TrainingDays {
			var seeds []string
			for _, da := range snap.RareActivities() {
				if det.IsCC(da, date) {
					seeds = append(seeds, da.Domain)
				}
			}
			if len(seeds) > 0 {
				res := repro.BeliefPropagation(snap, nil, seeds, det, scorer,
					repro.BPConfig{ScoreThreshold: 0.25, MaxIterations: 6})
				fmt.Printf("%s  flows=%d rare-dst=%d C&C-seeds=%v expanded=%d hosts=%v\n",
					date.Format("2006-01-02"), stats.Kept, snap.RareCount(),
					seeds, len(res.Detections), res.Hosts)
			}
			for _, c := range g.Truth.CampaignsOn(date) {
				if len(c.Hosts) < 2 {
					continue // the flow heuristic needs two synchronized hosts
				}
				total++
				ccIP := "" // the campaign's C&C as seen at flow granularity
				for _, s := range seeds {
					if s == flowAddr(g, c.CCDomain) {
						ccIP = s
					}
				}
				if ccIP != "" {
					caught++
					fmt.Printf("    -> campaign %s C&C caught at flow granularity (%s)\n", c.ID, ccIP)
				}
			}
		}
		snap.Commit(hist)
	}
	fmt.Printf("\nmulti-host C&C channels caught from NetFlow alone: %d/%d\n", caught, total)
	return nil
}

func flowAddr(g *repro.EnterpriseGenerator, domain string) string {
	return g.Truth.DomainIP[domain].String()
}

// flowDetector flags rare flow destinations with automated connections
// from at least two distinct hosts.
type flowDetector struct{}

func (flowDetector) IsCC(da *repro.DomainActivity, _ time.Time) bool {
	if da.NumHosts() < 2 {
		return false
	}
	auto := 0
	for _, ha := range da.Hosts {
		if repro.AnalyzeTimes(ha.Times, repro.DefaultHistogramConfig()).Automated {
			auto++
		}
	}
	return auto >= 2
}
