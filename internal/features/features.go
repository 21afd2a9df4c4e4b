// Package features extracts the per-domain feature vectors the paper feeds
// into its regression models: the six C&C features of §IV-C (domain
// connectivity, automated connectivity, referer absence, user-agent rarity,
// domain age, registration validity) and the similarity features of §IV-D
// (adding timing correlation and IP-space proximity to a set of
// already-labeled malicious domains).
//
// Count and day-valued features are squashed into bounded ranges so the
// regression operates on comparable scales; the squashing is monotone, so
// coefficient signs retain the paper's interpretation (e.g. DomAge is
// negatively correlated with reported domains).
package features

import (
	"math"
	"net/netip"
	"time"

	"repro/internal/logs"
	"repro/internal/profile"
	"repro/internal/whois"
)

// CloseVisitWindow is the timing-correlation scale: the paper measures that
// 56% of first visits to two malicious domains fall within 160 seconds of
// each other, against 3.8% for malicious/legitimate pairs (Figure 3).
const CloseVisitWindow = 160 * time.Second

// CC holds the six C&C features of one rare automated domain (§IV-C).
type CC struct {
	// NoHosts is the squashed count of hosts contacting the domain.
	NoHosts float64
	// AutoHosts is the squashed count of hosts with automated connections.
	AutoHosts float64
	// NoRef is the fraction of contacting hosts that sent no web referer.
	NoRef float64
	// RareUA is the fraction of contacting hosts using no or a rare UA.
	RareUA float64
	// DomAge is the domain age in years, capped at 10.
	DomAge float64
	// DomValidity is the remaining registration validity in years, capped
	// at 10.
	DomValidity float64
	// HasWhois is false when WHOIS was unparseable; the caller substitutes
	// fleet averages for DomAge/DomValidity (§VI-C).
	HasWhois bool
}

// CCFeatureNames lists the feature order produced by CC.Vector.
var CCFeatureNames = []string{"NoHosts", "AutoHosts", "NoRef", "RareUA", "DomAge", "DomValidity"}

// Vector returns the regression design row. When withAutoHosts is false the
// AutoHosts column is omitted — the paper drops it for collinearity with
// NoHosts (§VI-A).
func (c CC) Vector(withAutoHosts bool) []float64 {
	if withAutoHosts {
		return []float64{c.NoHosts, c.AutoHosts, c.NoRef, c.RareUA, c.DomAge, c.DomValidity}
	}
	return []float64{c.NoHosts, c.NoRef, c.RareUA, c.DomAge, c.DomValidity}
}

// Similarity holds the eight features used by Compute_SimScore (§IV-D).
type Similarity struct {
	NoHosts     float64
	DomInterval float64 // timing closeness to the labeled set, in [0,1]
	IP24        float64 // 1 if the domain shares a /24 with a labeled domain
	IP16        float64 // 1 if the domain shares a /16 with a labeled domain
	NoRef       float64
	RareUA      float64
	DomAge      float64
	DomValidity float64
	HasWhois    bool
}

// SimilarityFeatureNames lists the feature order produced by Similarity.Vector.
var SimilarityFeatureNames = []string{
	"NoHosts", "DomInterval", "IP24", "IP16", "NoRef", "RareUA", "DomAge", "DomValidity",
}

// Vector returns the regression design row. When withIP16 is false the IP16
// column is omitted — the paper drops it for collinearity with IP24 (§VI-A).
func (s Similarity) Vector(withIP16 bool) []float64 {
	if withIP16 {
		return []float64{s.NoHosts, s.DomInterval, s.IP24, s.IP16, s.NoRef, s.RareUA, s.DomAge, s.DomValidity}
	}
	return []float64{s.NoHosts, s.DomInterval, s.IP24, s.NoRef, s.RareUA, s.DomAge, s.DomValidity}
}

// Extractor computes features against the enterprise's behavioural history
// and the WHOIS registry.
type Extractor struct {
	Hist  *profile.History
	Whois *whois.Registry
	// UARareThreshold is the host-count threshold under which a UA string
	// is rare; the paper sets 10 on SOC advice. Zero means 10.
	UARareThreshold int
}

func (x *Extractor) uaThreshold() int {
	if x.UARareThreshold <= 0 {
		return 10
	}
	return x.UARareThreshold
}

// squashCount maps a host count into [0,1], saturating at 10 hosts (the
// unpopularity threshold bounds rare-domain connectivity anyway).
func squashCount(n int) float64 {
	if n > 10 {
		n = 10
	}
	return float64(n) / 10
}

// yearsCapped converts days into years, capped at 10 and floored at -1
// (domains registered *after* the observation day appear as negative age).
func yearsCapped(days float64) float64 {
	y := days / 365
	if y > 10 {
		y = 10
	}
	if y < -1 {
		y = -1
	}
	return y
}

// noRefFraction is the fraction of contacting hosts that never sent a web
// referer to the domain.
func noRefFraction(da *profile.DomainActivity) float64 {
	if len(da.Hosts) == 0 {
		return 0
	}
	n := 0
	for _, ha := range da.Hosts {
		if ha.UsesNoReferer() {
			n++
		}
	}
	return float64(n) / float64(len(da.Hosts))
}

// rareUAFraction is the fraction of contacting hosts that used no UA or a
// rare UA when contacting the domain.
func (x *Extractor) rareUAFraction(da *profile.DomainActivity) float64 {
	if len(da.Hosts) == 0 {
		return 0
	}
	n := 0
	for _, ha := range da.Hosts {
		rare := false
		for _, ua := range ha.UAs {
			if x.Hist.RareUA(ua, x.uaThreshold()) {
				rare = true
				break
			}
		}
		if rare {
			n++
		}
	}
	return float64(n) / float64(len(da.Hosts))
}

// CC extracts the C&C feature vector for a rare domain. autoHosts is the
// number of hosts whose connections to the domain the dynamic-histogram
// detector labeled automated; day anchors the WHOIS age computation.
func (x *Extractor) CC(da *profile.DomainActivity, autoHosts int, day time.Time) CC {
	c := CC{
		NoHosts:   squashCount(da.NumHosts()),
		AutoHosts: squashCount(autoHosts),
		NoRef:     noRefFraction(da),
		RareUA:    x.rareUAFraction(da),
	}
	if x.Whois != nil {
		if age, err := x.Whois.Age(da.Domain, day); err == nil {
			validity, _ := x.Whois.Validity(da.Domain, day)
			c.DomAge = yearsCapped(age)
			c.DomValidity = yearsCapped(validity)
			c.HasWhois = true
		}
	}
	return c
}

// Labeled is the view of an already-labeled malicious domain that the
// similarity features compare against: who visited it first and when, and
// where it is hosted.
type Labeled struct {
	Domain string
	// FirstVisit maps host -> first connection time.
	FirstVisit map[string]time.Time
	IP         netip.Addr
}

// LabeledFromActivity builds the comparison view from a day's activity.
func LabeledFromActivity(da *profile.DomainActivity) Labeled {
	l := Labeled{
		Domain:     da.Domain,
		FirstVisit: make(map[string]time.Time, len(da.Hosts)),
		IP:         da.IP,
	}
	for _, ha := range da.Hosts {
		l.FirstVisit[ha.Host] = ha.First()
	}
	return l
}

// timingCloseness maps the minimal first-visit interval between the
// candidate and the labeled set (over shared hosts) into (0,1]: 1 for
// simultaneous visits, 1/2 at CloseVisitWindow, decaying toward 0.
// Domains with no shared host score 0.
func timingCloseness(da *profile.DomainActivity, labeled []Labeled) float64 {
	minIv := math.Inf(1)
	for _, ha := range da.Hosts {
		for _, l := range labeled {
			lt, ok := l.FirstVisit[ha.Host]
			if !ok {
				continue
			}
			iv := math.Abs(ha.First().Sub(lt).Seconds())
			if iv < minIv {
				minIv = iv
			}
		}
	}
	if math.IsInf(minIv, 1) {
		return 0
	}
	return 1 / (1 + minIv/CloseVisitWindow.Seconds())
}

// ipProximity returns the /24 and /16 sharing indicators against the
// labeled set. Sharing a /24 implies sharing the /16, preserving the
// collinearity the paper observed (§VI-A).
func ipProximity(ip netip.Addr, labeled []Labeled) (ip24, ip16 float64) {
	for _, l := range labeled {
		if logs.SameSubnet24(ip, l.IP) {
			return 1, 1
		}
		if logs.SameSubnet16(ip, l.IP) {
			ip16 = 1
		}
	}
	return ip24, ip16
}

// Similarity extracts the similarity feature vector of a candidate rare
// domain relative to the set of domains labeled malicious in previous
// belief propagation iterations.
func (x *Extractor) Similarity(da *profile.DomainActivity, labeled []Labeled, day time.Time) Similarity {
	s := Similarity{
		NoHosts:     squashCount(da.NumHosts()),
		DomInterval: timingCloseness(da, labeled),
		NoRef:       noRefFraction(da),
		RareUA:      x.rareUAFraction(da),
	}
	s.IP24, s.IP16 = ipProximity(da.IP, labeled)
	if x.Whois != nil {
		if age, err := x.Whois.Age(da.Domain, day); err == nil {
			validity, _ := x.Whois.Validity(da.Domain, day)
			s.DomAge = yearsCapped(age)
			s.DomValidity = yearsCapped(validity)
			s.HasWhois = true
		}
	}
	return s
}
