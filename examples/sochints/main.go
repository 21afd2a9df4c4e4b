// Command sochints demonstrates the SOC analyst workflow of the paper's
// SOC-hints mode (§VI-D): starting from the enterprise's IOC list, belief
// propagation expands each day's seeds into a community of related
// malicious domains and compromised hosts, and the result is rendered both
// as an investigation report and as a Graphviz DOT community graph
// (Figure 8 style).
package main

import (
	"flag"
	"fmt"

	"repro"
)

func main() {
	seed := flag.Int64("seed", 11, "dataset seed")
	dotOut := flag.Bool("dot", false, "print the community graph as Graphviz DOT")
	flag.Parse()
	run(*seed, *dotOut)
}

func run(seed int64, dotOut bool) {
	res := repro.RunEnterprise(repro.ScaleSmall, seed)

	fmt.Printf("SOC IOC list: %d domains\n\n", len(res.Oracle.IOCs()))
	for _, rep := range res.OperationReports() {
		if rep.SOCHints == nil || len(rep.SOCHints.Detections) == 0 {
			continue
		}
		fmt.Printf("== %s: community expanded from IOC seeds ==\n", rep.Day.Format("2006-01-02"))

		g := repro.NewCommunityGraph("soc_" + rep.Day.Format("0102"))
		for _, ioc := range res.Oracle.IOCs() {
			if _, ok := rep.Snapshot.Rare[ioc]; ok {
				fmt.Printf("  seed   %s\n", ioc)
				g.AddNode(ioc, repro.NodeSeed)
			}
		}
		for _, d := range rep.SOCHints.Detections {
			verdict := res.Classify(d.Domain)
			fmt.Printf("  found  %-42s %-16s via %-10s hosts=%v\n",
				d.Domain, verdict, d.Reason, d.Hosts)
			kind := repro.NodeNew
			switch verdict.String() {
			case "known-malicious":
				kind = repro.NodeIntel
			}
			g.AddNode(d.Domain, kind)
			for _, h := range d.Hosts {
				g.AddNode(h, repro.NodeHost)
				g.AddEdge(h, d.Domain, "")
			}
		}
		fmt.Printf("  compromised hosts discovered: %v\n\n", rep.SOCHints.NewHosts)
		if dotOut {
			fmt.Println(g.String())
		}
	}
}
