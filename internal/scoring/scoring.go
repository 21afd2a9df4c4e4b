// Package scoring implements the domain similarity scorers behind
// Compute_SimScore in Algorithm 1: the regression-based scorer used on
// enterprise data (§IV-D, eight features) and the additive normalized
// scorer used for the LANL challenge (§V-B), where training data is too
// scarce for a regression and only connectivity, timing correlation, and IP
// proximity are available.
//
// Scores feed the ordered SOC report, so they must not depend on map
// iteration order; reprolint's maporder analyzer enforces the marker below.
//
//lint:deterministic
package scoring

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/profile"
	"repro/internal/regression"
)

// Scorer computes the similarity of a candidate rare domain to the set of
// domains already labeled malicious in earlier belief propagation
// iterations.
//
// Score must be safe for concurrent calls on a shared receiver: belief
// propagation with core.Config.Workers > 1 fans Compute_SimScore over all
// candidate domains at once. Both scorers in this package qualify — they
// read the trained model, the history, and the WHOIS registry, none of
// which is mutated during a scan.
type Scorer interface {
	Score(da *profile.DomainActivity, labeled []features.Labeled, day time.Time) float64
}

// RegressionScorer scores with the weights a linear regression learned
// from intelligence-labeled rare domains (§IV-D).
type RegressionScorer struct {
	Extractor *features.Extractor
	Model     *regression.Model
	// WithIP16 keeps the IP16 feature; the paper drops it for collinearity
	// with IP24, so the default is false.
	WithIP16 bool
	// DefaultDomAge/DefaultDomValidity substitute for unparseable WHOIS,
	// set during training to the training-set averages.
	DefaultDomAge      float64
	DefaultDomValidity float64

	trainScores []TrainingScore
}

// TrainingScore pairs a training example's fitted score with its label,
// used for threshold selection.
type TrainingScore struct {
	Domain   string
	Score    float64
	Reported bool
}

// TrainingScores returns the fitted scores of the training examples.
func (r *RegressionScorer) TrainingScores() []TrainingScore {
	out := make([]TrainingScore, len(r.trainScores))
	copy(out, r.trainScores)
	return out
}

var _ Scorer = (*RegressionScorer)(nil)

// SimilarityExample is one labeled observation for training.
type SimilarityExample struct {
	Domain   string
	Features features.Similarity
	Reported bool
}

// TrainSimilarity fits the similarity regression from labeled rare-domain
// examples and returns a ready scorer. Unparseable-WHOIS examples receive
// the training-set average age/validity, which the scorer then reuses at
// prediction time.
func TrainSimilarity(x *features.Extractor, examples []SimilarityExample, withIP16 bool) (*RegressionScorer, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("scoring: no training examples")
	}
	var sumAge, sumVal float64
	n := 0
	for _, ex := range examples {
		if ex.Features.HasWhois {
			sumAge += ex.Features.DomAge
			sumVal += ex.Features.DomValidity
			n++
		}
	}
	avgAge, avgVal := 0.0, 0.0
	if n > 0 {
		avgAge, avgVal = sumAge/float64(n), sumVal/float64(n)
	}

	rows := make([][]float64, len(examples))
	y := make([]float64, len(examples))
	for i, ex := range examples {
		f := ex.Features
		if !f.HasWhois {
			f.DomAge, f.DomValidity = avgAge, avgVal
		}
		rows[i] = f.Vector(withIP16)
		if ex.Reported {
			y[i] = 1
		}
	}
	m, err := regression.Fit(rows, y)
	if errors.Is(err, regression.ErrSingular) {
		m, err = regression.FitRidge(rows, y, 1e-6)
	}
	if err != nil {
		return nil, fmt.Errorf("scoring: train similarity: %w", err)
	}
	sc := &RegressionScorer{
		Extractor:          x,
		Model:              m,
		WithIP16:           withIP16,
		DefaultDomAge:      avgAge,
		DefaultDomValidity: avgVal,
	}
	sc.trainScores = make([]TrainingScore, 0, len(examples))
	for i, ex := range examples {
		v, err := m.Predict(rows[i])
		if err != nil {
			continue
		}
		sc.trainScores = append(sc.trainScores, TrainingScore{
			Domain: ex.Domain, Score: v, Reported: ex.Reported,
		})
	}
	return sc, nil
}

// Score implements Scorer.
func (r *RegressionScorer) Score(da *profile.DomainActivity, labeled []features.Labeled, day time.Time) float64 {
	f := r.Extractor.Similarity(da, labeled, day)
	if !f.HasWhois {
		f.DomAge, f.DomValidity = r.DefaultDomAge, r.DefaultDomValidity
	}
	v, err := r.Model.Predict(f.Vector(r.WithIP16))
	if err != nil {
		return 0
	}
	return v
}

// AdditiveScorer is the LANL scorer of §V-B: the normalized sum of three
// components — domain connectivity, timing correlation with a labeled
// malicious domain, and IP-space proximity (2 for a shared /24, 1 for a
// shared /16). The paper sets its threshold Ts to 0.25.
type AdditiveScorer struct {
	// TimingWindow is the first-visit interval under which the timing
	// component fires; the zero value means features.CloseVisitWindow.
	TimingWindow time.Duration
}

var _ Scorer = AdditiveScorer{}

// AdditiveThreshold is the Ts chosen on the LANL training set (§V-B).
const AdditiveThreshold = 0.25

func (a AdditiveScorer) window() time.Duration {
	if a.TimingWindow <= 0 {
		return features.CloseVisitWindow
	}
	return a.TimingWindow
}

// Score implements Scorer. Each component is normalized to [0,1] and the
// three are averaged, so the score lives in [0,1].
func (a AdditiveScorer) Score(da *profile.DomainActivity, labeled []features.Labeled, day time.Time) float64 {
	// Connectivity: more contacting hosts, more suspicious; saturates at 4.
	conn := float64(da.NumHosts())
	if conn > 4 {
		conn = 4
	}
	conn /= 4

	// Timing: 1 when the domain was first visited close in time to a
	// labeled malicious domain by the same host.
	timing := 0.0
	for _, ha := range da.Hosts {
		for _, l := range labeled {
			lt, ok := l.FirstVisit[ha.Host]
			if !ok {
				continue
			}
			iv := ha.First().Sub(lt)
			if iv < 0 {
				iv = -iv
			}
			if iv <= a.window() {
				timing = 1
			}
		}
	}

	// IP proximity: 2 for a shared /24, 1 for a shared /16, normalized.
	ip := 0.0
	for _, l := range labeled {
		if logs.SameSubnet24(da.IP, l.IP) {
			ip = 2
			break
		}
		if logs.SameSubnet16(da.IP, l.IP) {
			ip = 1
		}
	}
	ip /= 2

	return (conn + timing + ip) / 3
}
