package pipeline

import (
	"testing"

	"repro/internal/ccdetect"
	"repro/internal/features"
	"repro/internal/scoring"
	"repro/internal/whois"
)

// TestPaperDefaults pins the parameters the pipelines default to: the
// 10-host popularity threshold (for domains and UAs), Tc = 0.40 without the
// AutoHosts feature, 10 belief propagation iterations on enterprise data and
// 5 on LANL (§V-C), LANL's additive Ts = 0.25 (§V-B), two calibration weeks
// and the 90-day label lag.
func TestPaperDefaults(t *testing.T) {
	ent := NewEnterprise(EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	if c := ent.Config(); c.UnpopularThreshold != 10 || c.MaxIterations != 10 ||
		c.CalibrationDays != 14 || c.LabelLagDays != 90 {
		t.Errorf("enterprise defaults %+v, want threshold 10, 10 iterations, 14 days, 90-day lag", c)
	}
	if ent.extractor.UARareThreshold != 10 {
		t.Errorf("UA rarity threshold %d, want the popularity threshold 10", ent.extractor.UARareThreshold)
	}
	if d := ent.Detector(); d.Threshold != 0.4 || d.WithAutoHosts {
		t.Errorf("detector Tc %v, WithAutoHosts %v; want 0.4, false", d.Threshold, d.WithAutoHosts)
	}
	lanl := NewLANL(LANLConfig{})
	if c := lanl.cfg; c.UnpopularThreshold != 10 || c.ScoreThreshold != 0.25 || c.MaxIterations != 5 {
		t.Errorf("LANL defaults %+v, want threshold 10, Ts 0.25, 5 iterations", c)
	}
}

// TestSimilarityModelDropsIP16: the enterprise similarity regression is fit
// without the IP16 feature, which the paper drops for collinearity with
// IP24 (§VI-A).
func TestSimilarityModelDropsIP16(t *testing.T) {
	p := NewEnterprise(EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	for i := 0; i < 24; i++ {
		p.ccExamples = append(p.ccExamples, ccdetect.TrainingExample{
			Features: features.CC{
				NoHosts: float64(i%3) / 3, NoRef: float64(i%4) / 4, RareUA: float64(i%5) / 5,
				DomAge: float64(i % 7), DomValidity: float64(i%2) + 1, HasWhois: true,
			},
			Reported: i%2 == 0,
		})
		p.simExamples = append(p.simExamples, scoring.SimilarityExample{
			Features: features.Similarity{
				NoHosts: float64(i%3) / 3, DomInterval: float64(i%4) / 4, IP24: float64(i % 2),
				IP16: float64(i%3) / 2, NoRef: float64(i%5) / 5, RareUA: float64(i%6) / 6,
				DomAge: float64(i % 7), DomValidity: float64(i%5) + 1, HasWhois: true,
			},
			Reported: i%3 == 0,
		})
	}
	if err := p.fitModels(); err != nil {
		t.Fatal(err)
	}
	sc, ok := p.SimilarityScorer().(*scoring.RegressionScorer)
	if !ok {
		t.Fatalf("similarity scorer %T, want the regression", p.SimilarityScorer())
	}
	if sc.WithIP16 || len(sc.Model.Coef) != len(features.SimilarityFeatureNames)-1 {
		t.Errorf("WithIP16 %v with %d coefficients, want the %d features without IP16",
			sc.WithIP16, len(sc.Model.Coef), len(features.SimilarityFeatureNames)-1)
	}
}
