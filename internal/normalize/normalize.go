// Package normalize implements the data normalization and reduction stage
// of §IV-A: it turns raw DNS or web-proxy records into the uniform Visit
// stream the detectors consume, while pruning the traffic classes the paper
// discards (non-A DNS records, internal queries, server-initiated queries,
// IP-literal destinations) and repairing dataset inconsistencies (capture
// devices in different timezones, DHCP/VPN address churn).
//
// Each reducer also reports the per-step domain counts needed to reproduce
// Figure 2.
package normalize

import (
	"net/netip"
	"time"

	"repro/internal/logs"
)

// DNSStats records the distinct-domain population after each reduction step
// for one day (the series of Figure 2).
type DNSStats struct {
	Records int // raw record count
	// DomainsAll counts distinct folded domains before any filtering.
	DomainsAll int
	// DomainsAfterInternal counts domains after dropping non-A records and
	// queries for internal resources.
	DomainsAfterInternal int
	// DomainsAfterServers additionally drops queries initiated by internal
	// servers.
	DomainsAfterServers int
	// Kept is the number of Visit records that survived.
	Kept int
}

// ReduceDNS applies the LANL reduction: keep A records only, drop internal
// queries and server-initiated queries, fold to the third level (domain
// names are anonymized, §IV-A), and emit the surviving visits.
func ReduceDNS(recs []logs.DNSRecord) ([]logs.Visit, DNSStats) {
	var stats DNSStats
	stats.Records = len(recs)
	all := make(map[string]bool)
	afterInternal := make(map[string]bool)
	afterServers := make(map[string]bool)

	visits := make([]logs.Visit, 0, len(recs))
	for _, r := range recs {
		folded := logs.FoldThirdLevel(r.Query)
		all[folded] = true
		if r.Type != logs.TypeA || r.Internal {
			continue
		}
		afterInternal[folded] = true
		if r.Server {
			continue
		}
		afterServers[folded] = true
		visits = append(visits, logs.Visit{
			Time:   r.Time,
			Host:   r.SrcIP.String(), // LANL addresses are static: IP == host identity
			Domain: folded,
			DestIP: r.Answer,
		})
	}
	stats.DomainsAll = len(all)
	stats.DomainsAfterInternal = len(afterInternal)
	stats.DomainsAfterServers = len(afterServers)
	stats.Kept = len(visits)
	return visits, stats
}

// FlowStats records the reduction outcome for one day of NetFlow data.
type FlowStats struct {
	Records int
	// DroppedNonWeb counts flows on ports other than 80/443 — the paper's
	// observation that enterprise C&C rides HTTP/HTTPS because firewalls
	// block everything else (§II-A) makes the web ports the scope.
	DroppedNonWeb int
	// DroppedInternal counts flows whose destination is RFC1918 space.
	DroppedInternal int
	// DroppedUnresolved counts flows whose source had no lease on file.
	DroppedUnresolved int
	Destinations      int // distinct external destinations kept
	Kept              int
}

// ReduceFlows applies the NetFlow reduction: keep web-port flows to
// external destinations and resolve sources through the lease map. NetFlow
// carries no domain names, so the destination identity is the server
// address itself; the /16-folded address plays the role the folded domain
// plays for the other data sources, and the detectors run unchanged.
func ReduceFlows(recs []logs.FlowRecord, leases map[netip.Addr]string) ([]logs.Visit, FlowStats) {
	var stats FlowStats
	stats.Records = len(recs)
	dests := make(map[string]bool)
	visits := make([]logs.Visit, 0, len(recs))
	for _, r := range recs {
		if r.DstPort != 80 && r.DstPort != 443 {
			stats.DroppedNonWeb++
			continue
		}
		if IsInternal(r.DstIP) {
			stats.DroppedInternal++
			continue
		}
		host, ok := leases[r.SrcIP]
		if !ok {
			stats.DroppedUnresolved++
			continue
		}
		dest := r.DstIP.String()
		dests[dest] = true
		visits = append(visits, logs.Visit{
			Time:   r.Time,
			Host:   host,
			Domain: dest,
			DestIP: r.DstIP,
		})
	}
	stats.Destinations = len(dests)
	stats.Kept = len(visits)
	return visits, stats
}

// IsInternal reports whether a is enterprise-internal address space
// (RFC 1918 or loopback) — the destinations the NetFlow reduction drops.
// Exported so the live flow listener applies the same boundary before
// records ever reach the engine.
func IsInternal(a netip.Addr) bool {
	if !a.Is4() {
		return a.IsPrivate() || a.IsLoopback()
	}
	b := a.As4()
	return b[0] == 10 || (b[0] == 172 && b[1] >= 16 && b[1] < 32) ||
		(b[0] == 192 && b[1] == 168) || b[0] == 127
}

// ProxyStats records the reduction outcome for one day of proxy logs.
type ProxyStats struct {
	Records int
	// DomainsAll counts distinct folded destination domains.
	DomainsAll int
	// DroppedIPLiteral counts records whose destination was a bare IP.
	DroppedIPLiteral int
	// DroppedUnresolved counts records whose source address had no DHCP or
	// VPN lease on file.
	DroppedUnresolved int
	Kept              int
}

// ProxyOutcome classifies the reduction of one proxy record.
type ProxyOutcome int

const (
	// ProxyKept means the record reduced to a Visit.
	ProxyKept ProxyOutcome = iota
	// ProxyDroppedIPLiteral means the destination was a bare IP.
	ProxyDroppedIPLiteral
	// ProxyDroppedUnresolved means the source address had no lease; the
	// returned folded domain is still valid and counts toward DomainsAll.
	ProxyDroppedUnresolved
)

// ProxyReducer applies the per-record half of the AC normalization to proxy
// records: IP-literal filtering, second-level folding, lease resolution, and
// device-local-to-UTC conversion. ReduceProxy loops over it for daily
// batches; the streaming engine routes every ingested record through it,
// which keeps the two paths reducing identically by construction.
//
// The reducer memoises the verdict and fold of the last domain it saw: proxy
// logs arrive heavily domain-clustered (a page load is a burst toward one
// site), so a run of same-domain records scans the name once. Both are pure
// functions of the domain, so the memo cannot change an outcome. The zero
// value is ready to use; a reducer is not safe for concurrent use.
type ProxyReducer struct {
	domain, folded string
	ipLiteral      bool
}

// Key classifies r and returns the (host, folded domain) pair its visit
// files under. ProxyDroppedIPLiteral yields neither; for
// ProxyDroppedUnresolved the folded domain is still valid and counts toward
// DomainsAll.
func (p *ProxyReducer) Key(r *logs.ProxyRecord, leases map[netip.Addr]string) (host, folded string, outcome ProxyOutcome) {
	if r.Domain != p.domain {
		p.domain = r.Domain
		p.ipLiteral = logs.IsIPLiteral(r.Domain)
		p.folded = ""
		if !p.ipLiteral {
			p.folded = logs.FoldSecondLevel(r.Domain)
		}
	}
	if p.ipLiteral {
		return "", "", ProxyDroppedIPLiteral
	}
	if host = r.Host; host == "" {
		var ok bool
		if host, ok = leases[r.SrcIP]; !ok {
			return "", p.folded, ProxyDroppedUnresolved
		}
	}
	return host, p.folded, ProxyKept
}

// FillVisit writes the visit of a ProxyKept record into *v — a slot of the
// caller's buffer — from the record and the pair Key returned for it.
func FillVisit(v *logs.Visit, r *logs.ProxyRecord, host, folded string) {
	*v = logs.Visit{
		Time:      r.Time.Add(-time.Duration(r.TZOffset) * time.Hour),
		Host:      host,
		Domain:    folded,
		DestIP:    r.DestIP,
		URL:       r.URL,
		UserAgent: r.UserAgent,
		HasUA:     r.UserAgent != "",
		HasRef:    r.Referer != "",
	}
}

// ReduceProxy applies the AC normalization: convert device-local timestamps
// to UTC using the per-record timezone offset, resolve DHCP/VPN source
// addresses to stable hostnames via the lease map, drop destinations that
// are IP literals, and fold domains to the second level.
func ReduceProxy(recs []logs.ProxyRecord, leases map[netip.Addr]string) ([]logs.Visit, ProxyStats) {
	var stats ProxyStats
	stats.Records = len(recs)
	all := make(map[string]bool)

	visits := make([]logs.Visit, 0, len(recs))
	var red ProxyReducer
	for i := range recs {
		host, folded, outcome := red.Key(&recs[i], leases)
		switch outcome {
		case ProxyDroppedIPLiteral:
			stats.DroppedIPLiteral++
		case ProxyDroppedUnresolved:
			all[folded] = true
			stats.DroppedUnresolved++
		default:
			all[folded] = true
			visits = append(visits, logs.Visit{})
			FillVisit(&visits[len(visits)-1], &recs[i], host, folded)
		}
	}
	stats.DomainsAll = len(all)
	stats.Kept = len(visits)
	return visits, stats
}
