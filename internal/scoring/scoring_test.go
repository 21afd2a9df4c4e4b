package scoring

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/profile"
)

var day = time.Date(2014, 2, 10, 0, 0, 0, 0, time.UTC)

func activity(t *testing.T, domain, ip string, visits []logs.Visit) *profile.DomainActivity {
	t.Helper()
	for i := range visits {
		visits[i].Domain = domain
		visits[i].DestIP = netip.MustParseAddr(ip)
	}
	s := profile.NewSnapshot(day, visits, profile.NewHistory(), 100)
	da, ok := s.Rare[domain]
	if !ok {
		t.Fatalf("%s not rare", domain)
	}
	return da
}

func v(host string, at time.Duration) logs.Visit {
	return logs.Visit{Time: day.Add(at), Host: host}
}

func labeledSet(t *testing.T) []features.Labeled {
	mal := activity(t, "seed.ru", "198.51.100.10", []logs.Visit{
		v("h1", 10*time.Hour), v("h2", 10*time.Hour+5*time.Second),
	})
	return []features.Labeled{features.LabeledFromActivity(mal)}
}

func TestAdditiveScorerComponents(t *testing.T) {
	sc := AdditiveScorer{}
	labeled := labeledSet(t)

	// Full house: shared host close in time, same /24, multiple hosts.
	hot := activity(t, "hot.ru", "198.51.100.99", []logs.Visit{
		v("h1", 10*time.Hour+30*time.Second),
		v("h2", 10*time.Hour+40*time.Second),
		v("h3", 10*time.Hour+50*time.Second),
		v("h4", 10*time.Hour+60*time.Second),
	})
	score := sc.Score(hot, labeled, day)
	want := (1.0 + 1.0 + 1.0) / 3 // conn sat., timing hit, /24 hit
	if score != want {
		t.Errorf("hot score = %v, want %v", score, want)
	}

	// Cold: single host, no timing overlap, unrelated IP.
	cold := activity(t, "cold.ru", "8.8.4.4", []logs.Visit{v("hX", 2*time.Hour)})
	score = sc.Score(cold, labeled, day)
	want = (0.25 + 0 + 0) / 3
	if score != want {
		t.Errorf("cold score = %v, want %v", score, want)
	}
	if score >= AdditiveThreshold {
		t.Errorf("cold score %v must be under Ts=%v", score, AdditiveThreshold)
	}

	// /16 proximity only contributes half the IP component.
	near16 := activity(t, "near.ru", "198.51.200.1", []logs.Visit{v("hX", 2*time.Hour)})
	score = sc.Score(near16, labeled, day)
	want = (0.25 + 0 + 0.5) / 3
	if score != want {
		t.Errorf("/16 score = %v, want %v", score, want)
	}
}

func TestAdditiveScorerTimingWindow(t *testing.T) {
	labeled := labeledSet(t)
	within := activity(t, "w.ru", "8.8.4.4", []logs.Visit{v("h1", 10*time.Hour+150*time.Second)})
	outside := activity(t, "o.ru", "8.8.4.4", []logs.Visit{v("h1", 10*time.Hour+170*time.Second)})

	sc := AdditiveScorer{}
	if sc.Score(within, labeled, day) <= sc.Score(outside, labeled, day) {
		t.Error("visit within 160s must outscore one outside")
	}

	wide := AdditiveScorer{TimingWindow: 300 * time.Second}
	if wide.Score(outside, labeled, day) <= sc.Score(outside, labeled, day) {
		t.Error("wider window should lift the outside score")
	}
}

func TestAdditiveScoreRange(t *testing.T) {
	sc := AdditiveScorer{}
	labeled := labeledSet(t)
	for i, da := range []*profile.DomainActivity{
		activity(t, "a.ru", "198.51.100.12", []logs.Visit{v("h1", 10*time.Hour)}),
		activity(t, "b.ru", "1.2.3.4", []logs.Visit{v("q", time.Hour), v("r", time.Hour), v("s", time.Hour), v("t", time.Hour), v("u", time.Hour)}),
	} {
		s := sc.Score(da, labeled, day)
		if s < 0 || s > 1 {
			t.Errorf("case %d: score %v outside [0,1]", i, s)
		}
	}
}

func TestTrainSimilarityAndScore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hist := profile.NewHistory()
	for i := 0; i < 20; i++ {
		hist.UpdateUA(string(rune('a'+i)), "Common/1.0")
	}
	x := &features.Extractor{Hist: hist}

	var examples []SimilarityExample
	for i := 0; i < 150; i++ {
		reported := i%2 == 0
		f := features.Similarity{HasWhois: i%7 != 0, NoHosts: 0.1 + 0.2*rng.Float64()}
		if reported {
			f.DomInterval = 0.6 + 0.4*rng.Float64()
			f.IP24 = 1
			f.IP16 = 1
			f.NoRef = 0.8 + 0.2*rng.Float64()
			f.RareUA = 0.7 + 0.3*rng.Float64()
			f.DomAge = 0.1 * rng.Float64()
			f.DomValidity = 0.4 * rng.Float64()
		} else {
			f.DomInterval = 0.2 * rng.Float64()
			f.NoRef = 0.3 * rng.Float64()
			f.RareUA = 0.2 * rng.Float64()
			f.DomAge = 2 + 4*rng.Float64()
			f.DomValidity = 1 + 2*rng.Float64()
		}
		examples = append(examples, SimilarityExample{Features: f, Reported: reported})
	}
	sc, err := TrainSimilarity(x, examples, false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Model.R2 < 0.3 {
		t.Errorf("R2 = %v", sc.Model.R2)
	}
	if sc.DefaultDomAge <= 0 {
		t.Errorf("DefaultDomAge = %v, want positive (training average)", sc.DefaultDomAge)
	}

	labeled := labeledSet(t)
	// Malicious-looking candidate: shared host in time, same /24, no ref.
	mal := activity(t, "cand.ru", "198.51.100.50", []logs.Visit{
		v("h1", 10*time.Hour+20*time.Second),
	})
	ben := activity(t, "ben.com", "8.8.4.4", []logs.Visit{
		{Time: day.Add(2 * time.Hour), Host: "hZ", UserAgent: "Common/1.0", HasUA: true, HasRef: true},
	})
	if sc.Score(mal, labeled, day) <= sc.Score(ben, labeled, day) {
		t.Errorf("malicious candidate %v <= benign %v",
			sc.Score(mal, labeled, day), sc.Score(ben, labeled, day))
	}
}

func TestTrainSimilarityEmpty(t *testing.T) {
	if _, err := TrainSimilarity(nil, nil, false); err == nil {
		t.Error("empty training must fail")
	}
}

func TestAdditiveScorerEmptyLabeledSet(t *testing.T) {
	sc := AdditiveScorer{}
	da := activity(t, "x.ru", "8.8.4.4", []logs.Visit{v("h1", time.Hour)})
	s := sc.Score(da, nil, day)
	if s != (0.25+0+0)/3 {
		t.Errorf("empty labeled score = %v", s)
	}
}
