package profile

import (
	"slices"
	"sort"
	"time"

	"repro/internal/logs"
)

// referenceSnapshot is the independent oracle for the snapshot build: one
// scan of the day in visit order over plain maps, no builder, no seq keys,
// no partitions, no merge. NewSnapshotParallel, ClassifyDisjoint and
// MergeSnapshotParallel share one implementation, so without this the
// equivalence tests would compare that implementation with itself. A
// domain's hosts are a plain map during the scan and become the snapshot's
// host-sorted list only at the end. The oracle's own host_rdom index is
// installed as the snapshot's, so its HostRare reads that index instead of
// building one from the rare slice.
func referenceSnapshot(day time.Time, visits []logs.Visit, hist *History, threshold int) *Snapshot {
	s := &Snapshot{
		Day:  day,
		Rare: make(map[string]*DomainActivity),
	}
	hostRare := make(map[string][]string)
	pairs := make(map[[2]string]bool)
	acts := make(map[string]*DomainActivity)
	hosts := make(map[string]map[string]*HostActivity) // domain -> host -> activity
	paths := make(map[string]map[string]bool)          // domain -> its first 16 distinct paths
	uas := make(map[*HostActivity]map[string]bool)     // the host's UAs ("" for a UA-less visit)
	for i := range visits {
		v := &visits[i]
		da := acts[v.Domain]
		if da == nil {
			da = &DomainActivity{Domain: v.Domain}
			acts[v.Domain] = da
			hosts[v.Domain] = make(map[string]*HostActivity)
			paths[v.Domain] = make(map[string]bool)
			s.domains = append(s.domains, v.Domain)
		}
		if !da.IP.IsValid() {
			da.IP = v.DestIP // first seen
		}
		if pth := urlPath(v.URL); pth != "" && len(paths[v.Domain]) < maxPathsPerDomain {
			paths[v.Domain][pth] = true
		}
		ha := hosts[v.Domain][v.Host]
		if ha == nil {
			ha = &HostActivity{Host: v.Host}
			hosts[v.Domain][v.Host] = ha
			uas[ha] = make(map[string]bool)
		}
		ha.Times = append(ha.Times, v.Time)
		if !v.HasRef {
			ha.NoRefVisits++
		}
		if v.HasUA {
			uas[ha][v.UserAgent] = true
			pairs[[2]string{v.Host, v.UserAgent}] = true
		} else {
			uas[ha][""] = true
		}
	}
	// The sets in the snapshot's representation: UAs sorted, paths as entries
	// (the seq value is the builder's business; readers see the set).
	for ha, set := range uas {
		for ua := range set {
			ha.UAs = append(ha.UAs, ua)
		}
		sort.Strings(ha.UAs)
	}
	for d, set := range paths {
		for p := range set {
			acts[d].paths = append(acts[d].paths, pathSeq{path: p})
		}
	}
	s.uaPairs = []map[[2]string]bool{pairs}
	s.AllDomains = len(acts)
	for d, da := range acts {
		if hist.SeenDomain(d) {
			continue
		}
		s.NewDomains++
		if len(hosts[d]) >= threshold {
			continue
		}
		s.Rare[d] = da
		s.rare = append(s.rare, da)
		for h, ha := range hosts[d] {
			slices.SortFunc(ha.Times, time.Time.Compare)
			hostRare[h] = append(hostRare[h], d)
			da.Hosts = append(da.Hosts, ha)
		}
		sort.Slice(da.Hosts, func(i, j int) bool { return da.Hosts[i].Host < da.Hosts[j].Host })
	}
	for h := range hostRare {
		sort.Strings(hostRare[h])
	}
	s.hostRareOnce.Do(func() { s.hostRare = hostRare })
	sort.Slice(s.rare, func(i, j int) bool { return s.rare[i].Domain < s.rare[j].Domain })
	return s
}

// rareNames lists the snapshot's rare domains in RareActivities order.
func rareNames(s *Snapshot) []string {
	out := make([]string, len(s.RareActivities()))
	for i, da := range s.RareActivities() {
		out[i] = da.Domain
	}
	return out
}

// pairUnion is the day's (host, UA) pair set: the union of the parts' sets a
// snapshot keeps for Commit.
func pairUnion(s *Snapshot) map[[2]string]bool {
	out := make(map[[2]string]bool)
	for _, set := range s.uaPairs {
		for pair := range set {
			out[pair] = true
		}
	}
	return out
}
