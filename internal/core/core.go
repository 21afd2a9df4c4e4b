// Package core implements the paper's primary contribution: the belief
// propagation framework for detecting early-stage enterprise infection
// (§III-C, §IV-B, Algorithm 1).
//
// The communication of one day is modeled as a bipartite graph between
// internal hosts and the rare external domains they contacted. Starting
// from seeds — compromised hosts and/or malicious domains supplied by the
// SOC, or C&C domains found by the no-hint detector — the algorithm
// iteratively expands a community of related malicious domains and
// compromised hosts: in each iteration it first looks for C&C-like domains
// among the rare domains reachable from the compromised host set, and
// otherwise labels the single rare domain most similar to the domains
// already labeled, stopping when the best score falls below the threshold
// Ts or the iteration budget is exhausted. The graph is built incrementally
// — hosts and domains join only when confidence is high — which is what
// keeps the method tractable on days with tens of thousands of rare
// domains.
//
// Detection order is the SOC's ordered list (§III-E); reprolint's maporder
// analyzer keeps map iteration order out of it.
//
//lint:deterministic
package core

import (
	"sort"
	"time"

	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/profile"
)

// CCDetector is the Detect_C&C hook of Algorithm 1.
type CCDetector interface {
	// IsCC reports whether the rare domain's daily activity is C&C-like.
	IsCC(da *profile.DomainActivity, day time.Time) bool
}

// CCSet is the day's C&C verdict, the detector's scored C&C list decided once
// per domain-day, and the Detect_C&C hook every pipeline passes.
type CCSet map[string]bool

// IsCC reports whether the domain is in the set.
func (s CCSet) IsCC(da *profile.DomainActivity, _ time.Time) bool { return s[da.Domain] }

// SimilarityScorer is the Compute_SimScore hook of Algorithm 1.
type SimilarityScorer interface {
	Score(da *profile.DomainActivity, labeled []features.Labeled, day time.Time) float64
}

// Config parameterizes a belief propagation run.
type Config struct {
	// ScoreThreshold is Ts: the minimum similarity score for labeling a
	// domain malicious.
	ScoreThreshold float64
	// MaxIterations bounds the expansion; the zero value means 10. The
	// paper runs five iterations per LANL case and leaves the bound
	// configurable by SOC capacity on enterprise data.
	MaxIterations int
	// Workers bounds the worker pool that fans the per-candidate
	// Compute_SimScore evaluations of an iteration — the dominant cost on
	// days with tens of thousands of rare domains. The scores are
	// computed concurrently but consumed in the exact sorted order of the
	// sequential algorithm, so the result is byte-identical for any worker
	// count. 0 means GOMAXPROCS; 1 runs sequentially. Workers > 1
	// requires sim to be safe for concurrent calls (the scorers in this
	// module are).
	Workers int
}

func (c Config) maxIter() int {
	if c.MaxIterations <= 0 {
		return 10
	}
	return c.MaxIterations
}

// Reason explains why a domain was labeled.
type Reason int

// Labeling reasons.
const (
	// ReasonSeed marks seed domains supplied by the caller.
	ReasonSeed Reason = iota + 1
	// ReasonCC marks domains labeled by the C&C detector.
	ReasonCC
	// ReasonSimilarity marks domains labeled by the similarity score.
	ReasonSimilarity
)

// String returns a short label for reports.
func (r Reason) String() string {
	switch r {
	case ReasonSeed:
		return "seed"
	case ReasonCC:
		return "c&c"
	case ReasonSimilarity:
		return "similarity"
	default:
		return "unknown"
	}
}

// Detection is one labeled malicious domain with its provenance.
type Detection struct {
	Domain    string
	Reason    Reason
	Score     float64 // similarity score; 0 for seed/C&C labels
	Iteration int
	// Hosts are the internal hosts contacting the domain today.
	Hosts []string
}

// Result is the outcome of one belief propagation run.
type Result struct {
	// Detections lists newly labeled domains in detection order (the
	// paper's "ordered list of suspicious domains" handed to the SOC).
	Detections []Detection
	// Hosts is the final compromised host set, including seeds, sorted.
	Hosts []string
	// NewHosts is the subset of Hosts that were not seeds, sorted.
	NewHosts []string
	// Iterations is the number of loop iterations executed.
	Iterations int
}

// Domains returns the newly labeled domains in detection order.
func (r *Result) Domains() []string {
	out := make([]string, 0, len(r.Detections))
	for _, d := range r.Detections {
		out = append(out, d.Domain)
	}
	return out
}

// BeliefPropagation runs Algorithm 1 against one day's snapshot.
//
// seedHosts and seedDomains play the roles of H and M. In SOC-hints mode
// the seeds come from analyst-confirmed incidents or the IOC list; in
// no-hint mode the caller first runs the C&C detector and seeds with its
// detections and the hosts contacting them. Seed domains are never
// re-reported in the result. cc is Detect_C&C: the pipelines pass the day's
// CCSet, so each domain's C&C verdict is the one the day's detector reached.
func BeliefPropagation(
	s *profile.Snapshot,
	seedHosts, seedDomains []string,
	cc CCDetector,
	sim SimilarityScorer,
	cfg Config,
) *Result {
	res := &Result{}

	// H, M, and R of Algorithm 1.
	hosts := make(map[string]bool, len(seedHosts))
	seedHostSet := make(map[string]bool, len(seedHosts))
	for _, h := range seedHosts {
		hosts[h] = true
		seedHostSet[h] = true
	}
	// labeled is the comparison set for similarity scoring: the activity
	// view of every malicious domain observable today, in seed order.
	var labeled []features.Labeled
	malicious := make(map[string]bool, len(seedDomains))
	for _, d := range seedDomains {
		// Hosts contacting seed domains are compromised from the start.
		if da, ok := s.Rare[d]; ok && !malicious[d] {
			for _, ha := range da.Hosts {
				hosts[ha.Host] = true
			}
			labeled = append(labeled, features.LabeledFromActivity(da))
		}
		malicious[d] = true
	}
	rare := make(map[string]bool)
	addHostDomains := func(h string) {
		for _, d := range s.HostRare(h) {
			rare[d] = true
		}
	}
	for h := range hosts {
		addHostDomains(h)
	}

	label := func(d string, reason Reason, score float64, iter int) {
		malicious[d] = true
		da := s.Rare[d]
		labeled = append(labeled, features.LabeledFromActivity(da))
		res.Detections = append(res.Detections, Detection{
			Domain:    d,
			Reason:    reason,
			Score:     score,
			Iteration: iter,
			Hosts:     da.HostNames(),
		})
		// Expand H with the domain's hosts and R with their rare domains.
		for _, ha := range da.Hosts {
			hosts[ha.Host] = true
			addHostDomains(ha.Host)
		}
	}

	// candidates returns R \ M in sorted order — the iteration order of the
	// sequential algorithm. The similarity scores below fan out over the
	// worker pool but land in per-candidate slots, and the argmax walks the
	// slots in this order, so labeling decisions (and therefore the
	// detection order the SOC sees) are identical for any worker count.
	candidates := func() []string {
		out := make([]string, 0, len(rare))
		for d := range rare {
			if !malicious[d] {
				out = append(out, d)
			}
		}
		sort.Strings(out)
		return out
	}

	for iter := 1; iter <= cfg.maxIter(); iter++ {
		res.Iterations = iter
		labeledThisIter := false
		// One candidate list serves both steps: step 2 only runs when
		// step 1 labeled nothing, so R \ M is provably unchanged between
		// them.
		cand := candidates()

		// Step 1: label every C&C domain in R \ M. A verdict depends only
		// on the candidate's own activity, never on the labels accumulated
		// during the sweep.
		if cc != nil {
			for _, d := range cand {
				if cc.IsCC(s.Rare[d], s.Day) {
					label(d, ReasonCC, 0, iter)
					labeledThisIter = true
				}
			}
		}

		// Step 2: if no C&C was found, label the top-scoring domain.
		// Step 1 labeled nothing, so R is unchanged and the labeled set is
		// fixed for the whole scan — every score is independent. The
		// argmax replays the sequential scan over the score slots, keeping
		// its exact tie-break: the first candidate in sorted order at the
		// maximum (and no label at all when every score is negative).
		if !labeledThisIter && sim != nil {
			scores := make([]float64, len(cand))
			par.ForEachIndex(len(cand), cfg.Workers, func(i int) {
				scores[i] = sim.Score(s.Rare[cand[i]], labeled, s.Day)
			})
			bestScore := 0.0
			bestDomain := ""
			for i, d := range cand {
				if scores[i] > bestScore || (scores[i] == bestScore && bestDomain == "") {
					bestScore = scores[i]
					bestDomain = d
				}
			}
			if bestDomain != "" && bestScore >= cfg.ScoreThreshold {
				label(bestDomain, ReasonSimilarity, bestScore, iter)
				labeledThisIter = true
			}
		}

		if !labeledThisIter {
			break
		}
	}

	for h := range hosts {
		res.Hosts = append(res.Hosts, h)
		if !seedHostSet[h] {
			res.NewHosts = append(res.NewHosts, h)
		}
	}
	sort.Strings(res.Hosts)
	sort.Strings(res.NewHosts)
	return res
}
