// Package report renders the daily detection output as the structured
// artifact a SOC would consume: the paper's deliverable is "an ordered
// list of suspicious domains presented to SOC for further investigation"
// (§III-E); this package serializes that list — with per-domain evidence,
// beacon parameters, community membership and cluster context — as JSON
// suitable for ticketing systems.
//
// Report bytes are the golden equivalence artifact (streaming == batch for
// any shard/worker count); reprolint's maporder analyzer enforces the
// marker below.
//
//lint:deterministic
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// Domain is one suspicious domain entry.
type Domain struct {
	Domain string `json:"domain"`
	// Mode is "no-hint" or "soc-hints" (a domain found by both lists both).
	Modes []string `json:"modes"`
	// Reason is "c&c" or "similarity".
	Reason string `json:"reason"`
	// Score is the detector score (C&C score for C&C detections,
	// similarity score otherwise).
	Score float64 `json:"score"`
	// BeaconPeriodSeconds is set for C&C detections.
	BeaconPeriodSeconds float64 `json:"beaconPeriodSeconds,omitempty"`
	// Hosts are the internal hosts that contacted the domain.
	Hosts []string `json:"hosts"`
	// Iteration is the belief propagation iteration that labeled the
	// domain (0 for direct C&C detections).
	Iteration int `json:"iteration,omitempty"`
}

// Cluster is a campaign-shaped group in the report.
type Cluster struct {
	Kind    string   `json:"kind"`
	Key     string   `json:"key"`
	Domains []string `json:"domains"`
}

// Daily is the full report for one operation day.
type Daily struct {
	Date             string    `json:"date"`
	RareDestinations int       `json:"rareDestinations"`
	AutomatedDomains int       `json:"automatedDomains"`
	Domains          []Domain  `json:"domains"`
	CompromisedHosts []string  `json:"compromisedHosts"`
	Clusters         []Cluster `json:"clusters,omitempty"`
}

// Build assembles the daily report from a pipeline day report.
func Build(rep pipeline.EnterpriseDayReport) Daily {
	d := Daily{
		Date:             rep.Day.Format("2006-01-02"),
		RareDestinations: rep.RareCount,
		AutomatedDomains: len(rep.Automated),
	}

	entries := make(map[string]*Domain)
	addEntry := func(domain, mode, reason string, score float64, hosts []string, iter int) {
		e, ok := entries[domain]
		if !ok {
			e = &Domain{Domain: domain, Reason: reason, Score: score, Hosts: hosts, Iteration: iter}
			entries[domain] = e
		}
		for _, m := range e.Modes {
			if m == mode {
				return
			}
		}
		e.Modes = append(e.Modes, mode)
	}

	for _, ad := range rep.CC {
		e := &Domain{
			Domain:              ad.Domain,
			Reason:              core.ReasonCC.String(),
			Score:               ad.Score,
			BeaconPeriodSeconds: ad.Period(),
			Hosts:               ad.Activity.HostNames(),
			Modes:               []string{"no-hint"},
		}
		entries[ad.Domain] = e
	}
	collectBP := func(res *core.Result, mode string) {
		if res == nil {
			return
		}
		for _, det := range res.Detections {
			addEntry(det.Domain, mode, det.Reason.String(), det.Score, det.Hosts, det.Iteration)
		}
	}
	collectBP(rep.NoHint, "no-hint")
	collectBP(rep.SOCHints, "soc-hints")

	hosts := make(map[string]bool)
	for _, e := range entries {
		d.Domains = append(d.Domains, *e)
		for _, h := range e.Hosts {
			hosts[h] = true
		}
	}
	// Ordered by suspiciousness: C&C detections by score, then similarity
	// detections by score.
	sort.Slice(d.Domains, func(i, j int) bool {
		ci := d.Domains[i].BeaconPeriodSeconds > 0
		cj := d.Domains[j].BeaconPeriodSeconds > 0
		if ci != cj {
			return ci
		}
		if d.Domains[i].Score != d.Domains[j].Score {
			return d.Domains[i].Score > d.Domains[j].Score
		}
		return d.Domains[i].Domain < d.Domains[j].Domain
	})
	for h := range hosts {
		d.CompromisedHosts = append(d.CompromisedHosts, h)
	}
	sort.Strings(d.CompromisedHosts)

	// Cluster the day's detections.
	var infos []cluster.DomainInfo
	for _, e := range d.Domains {
		info := cluster.DomainInfo{Domain: e.Domain}
		if da, ok := rep.Snapshot.Rare[e.Domain]; ok {
			info.IP = da.IP
			info.Paths = da.Paths()
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Domain < infos[j].Domain })
	for _, c := range cluster.Find(infos) {
		d.Clusters = append(d.Clusters, Cluster{
			Kind: c.Kind.String(), Key: c.Key, Domains: c.Domains,
		})
	}
	return d
}

// WriteJSON serializes the report with stable formatting.
func (d Daily) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("report: encode: %w", err)
	}
	return nil
}
