// Package profile maintains the behavioural baselines of §III-E: the
// history of external destinations contacted by internal hosts and the
// history of user-agent strings, both bootstrapped over a training month
// and updated incrementally each operation day. From these it derives the
// paper's central data reduction — the daily set of rare destinations
// (new + unpopular) — and the RareUA signal used by the C&C detector.
//
// Snapshots, codecs, and persisted history are byte-deterministic for a
// given logical state; reprolint's maporder analyzer enforces the marker
// below.
//
//lint:deterministic
package profile

import (
	"sync"
	"time"
)

// History is the incrementally updated profile of normal activity.
// The zero value is not usable; construct with NewHistory.
//
// History is safe for concurrent use: reads (SeenDomain, RareUA, ...) take
// a shared lock and updates an exclusive one. The streaming engine relies
// on this — a background day-close commits yesterday into the history
// while the ingest shards consult SeenDomain for today's records.
type History struct {
	mu      sync.RWMutex
	domains map[string]time.Time       // folded domain -> first day seen
	uaHosts map[string]map[string]bool // UA -> hosts ever using it
	days    int                        // number of days ingested
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{
		domains: make(map[string]time.Time),
		uaHosts: make(map[string]map[string]bool),
	}
}

// UpdateDomains records that the given folded domains were seen on day.
// Call this at the end of each day, after rare-destination extraction, so
// that "new" is always judged against the history *before* today.
func (h *History) UpdateDomains(day time.Time, domains []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addDomainsLocked(day, domains)
}

// UpdateUA records that host used the given user-agent string.
func (h *History) UpdateUA(host, ua string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addUALocked(host, ua)
}

// commitDay is UpdateDomains plus UpdateUA for every pair of the given sets,
// under one lock acquisition: the day's commit (Snapshot.Commit).
func (h *History) commitDay(day time.Time, domains []string, pairSets []map[[2]string]bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, set := range pairSets {
		for pair := range set {
			h.addUALocked(pair[0], pair[1])
		}
	}
	h.addDomainsLocked(day, domains)
}

func (h *History) addDomainsLocked(day time.Time, domains []string) {
	for _, d := range domains {
		if _, ok := h.domains[d]; !ok {
			h.domains[d] = day
		}
	}
	h.days++
}

func (h *History) addUALocked(host, ua string) {
	if ua == "" {
		return
	}
	set, ok := h.uaHosts[ua]
	if !ok {
		set = make(map[string]bool)
		h.uaHosts[ua] = set
	}
	set[host] = true
}

// SeenDomain reports whether the folded domain appears in the history.
func (h *History) SeenDomain(d string) bool {
	h.mu.RLock()
	_, ok := h.domains[d]
	h.mu.RUnlock()
	return ok
}

// FirstSeen returns the day a domain first appeared and whether it is known.
func (h *History) FirstSeen(d string) (time.Time, bool) {
	h.mu.RLock()
	t, ok := h.domains[d]
	h.mu.RUnlock()
	return t, ok
}

// UAHostCount returns the number of distinct hosts that have ever used the
// user-agent string.
func (h *History) UAHostCount(ua string) int {
	h.mu.RLock()
	n := len(h.uaHosts[ua])
	h.mu.RUnlock()
	return n
}

// RareUA reports whether a user-agent string is rare: used by fewer than
// threshold hosts across the history, or absent entirely. The empty string
// (no UA at all) is always rare (§IV-C).
func (h *History) RareUA(ua string, threshold int) bool {
	if ua == "" {
		return true
	}
	h.mu.RLock()
	n := len(h.uaHosts[ua])
	h.mu.RUnlock()
	return n < threshold
}

// DomainCount returns the size of the destination history.
func (h *History) DomainCount() int {
	h.mu.RLock()
	n := len(h.domains)
	h.mu.RUnlock()
	return n
}

// UACount returns the number of distinct user-agent strings on file.
func (h *History) UACount() int {
	h.mu.RLock()
	n := len(h.uaHosts)
	h.mu.RUnlock()
	return n
}

// Days returns how many days have been ingested.
func (h *History) Days() int {
	h.mu.RLock()
	n := h.days
	h.mu.RUnlock()
	return n
}
