package stream

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/normalize"
	"repro/internal/profile"
)

// openDay is the open day as it leaves the shards, and the only form in which
// it does: a close takes the shards' own state, a Checkpoint or a Preview a
// copy of it. parts[i] and markers[i] are shard i's. A domain routes to one
// shard however it is seen, so the parts hold disjoint domain sets and a
// marker can only meet its domain's visits in its own shard's builder.
type openDay struct {
	day        time.Time                     // zero when no day was open
	parts      []*profile.IncrementalBuilder // per-shard partial snapshots
	markers    []map[string]struct{}         // per-shard lease-less-only domains
	unresolved int                           // lease-less records in the day
	records    uint64                        // raw records ingested into the day
	droppedIP  uint64                        // IP-literal drops in the day
}

// takeOpenDayLocked lifts the open day out of the shards in one quiesce: the
// whole ingest stall of a rollover, a checkpoint or a preview. With keep
// false (a close) it takes the shards' state itself and leaves every shard,
// and the day's counters, an empty day; the closing day's state then lives
// only as long as its close. With keep true (a Checkpoint or a Preview) it
// takes deep copies, which the caller reads after the lock is released while
// the ingest path keeps mutating the originals. Caller holds mu exclusively
// and has checked that a day is open.
func (e *Engine) takeOpenDayLocked(keep bool) openDay {
	od := openDay{
		day:       e.day,
		parts:     make([]*profile.IncrementalBuilder, len(e.shards)),
		markers:   make([]map[string]struct{}, len(e.shards)),
		records:   e.dayRecords.Load(),
		droppedIP: e.dayDroppedIP.Load(),
	}
	unresolved := make([]int, len(e.shards))
	e.quiesce(func(i int, s *shard) {
		unresolved[i] = s.unresolved
		if keep {
			od.parts[i] = s.part.Clone()
			od.markers[i] = maps.Clone(s.markers)
			return
		}
		od.parts[i], od.markers[i] = s.part, s.markers
		s.resetDay()
	})
	for _, n := range unresolved {
		od.unresolved += n
	}
	if !keep {
		e.dayRecords.Store(0)
		e.dayDroppedIP.Store(0)
	}
	return od
}

// freezeOpenDay is the prologue Checkpoint and Preview share. It waits out an
// in-flight close, so what follows sees a history holding every earlier day;
// then, under the exclusive lock, it runs locked (which reads whatever else
// of the engine the caller needs, consistently with the day) and copies the
// open day out of the shards, when one is open. It returns holding the commit
// gate's read side, with mu released: ingestion resumes while the caller
// encodes or runs the analytics, and a close that starts meanwhile waits for
// the caller's RUnlock before touching history, calibration or models. Taking
// the read side cannot block — no close is in flight, and none can start
// while mu is held. On a closed engine it returns ErrClosed, holding nothing.
func (e *Engine) freezeOpenDay(locked func()) (openDay, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.awaitCloseLocked()
	if e.closed {
		return openDay{}, ErrClosed
	}
	locked()
	var od openDay
	if !e.day.IsZero() {
		od = e.takeOpenDayLocked(true)
	}
	e.commitGate.RLock()
	return od, nil
}

// classify builds the day snapshot from the parts against the history —
// which must hold every earlier day — and the day's normalization
// statistics, for the close and Preview alike.
func (od *openDay) classify(hist *profile.History, unpopularThreshold, workers int) (*profile.Snapshot, normalize.ProxyStats) {
	snap := profile.ClassifyDisjoint(od.day, od.parts, hist, unpopularThreshold, workers)
	stats := normalize.ProxyStats{
		Records:           int(od.records),
		DomainsAll:        snap.AllDomains + len(od.markerOnly()),
		DroppedIPLiteral:  int(od.droppedIP),
		DroppedUnresolved: od.unresolved,
	}
	for _, p := range od.parts {
		stats.Kept += p.Visits()
	}
	return snap, stats
}

// markerOnly returns, sorted, the marker domains their shard's builder does
// not hold — what the lease-less records add to the day's distinct-domain
// count beyond the builders' own domains. No two shards' sets share a domain.
func (od *openDay) markerOnly() []string {
	var out []string
	for i, set := range od.markers {
		for d := range set {
			if !od.parts[i].HasDomain(d) {
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// save writes the checkpoint's open-day section: its header, the parts as one
// domain-keyed builder section, and the marker-only domains. Everything is
// written in sorted order, so identical engine state writes identical bytes
// whatever the shard count, and the section restores onto any shard count.
func (od *openDay) save(enc *json.Encoder) error {
	markers := od.markerOnly()
	if err := enc.Encode(checkpointOpenDay{MarkerDomains: len(markers), Unresolved: od.unresolved}); err != nil {
		return fmt.Errorf("stream: checkpoint open day: %w", err)
	}
	if err := od.parts[0].SaveTo(enc, od.parts[1:]...); err != nil {
		return fmt.Errorf("stream: checkpoint builder: %w", err)
	}
	for _, d := range markers {
		if err := enc.Encode(checkpointDomain{D: d}); err != nil {
			return fmt.Errorf("stream: checkpoint marker domain: %w", err)
		}
	}
	return nil
}
