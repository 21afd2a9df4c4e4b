package profile

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"
)

// Streaming codec for the day state a format-v2 engine checkpoint persists
// instead of raw visit replay: the open day's IncrementalBuilder partial
// (domain-keyed aggregation; a domain folded through AddKnown is a name and a
// count, so checkpoint size follows the day's distinct domains and its
// traffic toward new ones rather than traffic volume).
//
// It follows the persist.go conventions: line-delimited JSON through a
// caller-supplied encoder/decoder, a header record carrying the section's
// record counts so the section is self-delimiting, and streaming record-by-
// record so multi-million entry days never materialize as one value. The
// decoder is paranoid — a checkpoint is adversarial input after a crash —
// and refuses negative counts, duplicate keys, empty host activities and
// internally inconsistent visit totals instead of building broken state.

const builderCodecVersion = 1

type builderHeader struct {
	Version int `json:"version"`
	Visits  int `json:"visits"`
	Domains int `json:"domains"`
	UAPairs int `json:"uaPairs"`
}

// codecHost is one host's activity toward one domain. Times are serialized
// in the arrival order the builder holds them; UAs carry the empty string
// for UA-less connections.
type codecHost struct {
	Host  string      `json:"h"`
	Times []time.Time `json:"t"`
	NoRef int         `json:"noRef,omitempty"`
	UAs   []string    `json:"uas,omitempty"`
}

type builderDomainRec struct {
	Domain string            `json:"d"`
	IP     string            `json:"ip,omitempty"`
	IPSeq  uint64            `json:"ipSeq,omitempty"`
	Paths  map[string]uint64 `json:"paths,omitempty"`
	Hosts  []codecHost       `json:"hosts"`
	// Known is the domain's AddKnown visit count. Optional: sections written
	// before the field existed carry none and decode as 0.
	Known int `json:"known,omitempty"`
}

// uaPairRec is one (host, user-agent) pair of the day.
type uaPairRec struct {
	Host string `json:"h"`
	UA   string `json:"ua"`
}

func encodeHostActivity(ha *HostActivity) codecHost {
	return codecHost{Host: ha.Host, Times: ha.Times, NoRef: ha.NoRefVisits, UAs: ha.UAs}
}

// checkHost refuses a host record no fold can produce.
func checkHost(ch codecHost) error {
	if len(ch.Times) == 0 {
		return fmt.Errorf("host %q has no connection times", ch.Host)
	}
	if ch.NoRef < 0 || ch.NoRef > len(ch.Times) {
		return fmt.Errorf("host %q: noRef %d out of range (0..%d)", ch.Host, ch.NoRef, len(ch.Times))
	}
	for i := 1; i < len(ch.UAs); i++ {
		if ch.UAs[i-1] >= ch.UAs[i] {
			return fmt.Errorf("host %q: uas not sorted and distinct (%q before %q)", ch.Host, ch.UAs[i-1], ch.UAs[i])
		}
	}
	return nil
}

// builderPaths renders a retained-path set as the codec's path -> seq object.
func builderPaths(paths []pathSeq) map[string]uint64 {
	if len(paths) == 0 {
		return nil
	}
	m := make(map[string]uint64, len(paths))
	for _, e := range paths {
		m[e.path] = e.seq
	}
	return m
}

// SaveTo streams the builder through an existing encoder as one
// self-delimiting section: a header, one record per domain (its aggregate
// keyed by arrival seq, exactly the order-sensitive state the merge at
// day-close needs), and one record per (host, UA) pair. The builders in
// disjoint, when given, join b in the section: they and b must hold pairwise
// disjoint domain sets, as the streaming engine's per-shard partials do, so
// their domain records are written as they are, the visit counts summed and
// the (host, UA) pair sets unioned — the section of the one builder holding
// all of their state. Like History.SaveTo, records are emitted in sorted key
// order, so the byte output is deterministic for a given logical state, and
// independent of how it is cut into disjoint builders.
func (b *IncrementalBuilder) SaveTo(enc *json.Encoder, disjoint ...*IncrementalBuilder) error {
	parts := append([]*IncrementalBuilder{b}, disjoint...)
	visits := 0
	var aggs []*incrementalAgg
	pairSets := make([]map[[2]string]bool, len(parts))
	for i, p := range parts {
		visits += p.visits
		for a := p.first; a != nil; a = a.next {
			aggs = append(aggs, a)
		}
		pairSets[i] = p.uaPairs
	}
	pairs := sortedUAPairs(pairSets...)
	if err := enc.Encode(builderHeader{
		Version: builderCodecVersion,
		Visits:  visits,
		Domains: len(aggs),
		UAPairs: len(pairs),
	}); err != nil {
		return fmt.Errorf("profile: save builder header: %w", err)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].Domain < aggs[j].Domain })
	for _, a := range aggs {
		rec := builderDomainRec{Domain: a.Domain, IPSeq: a.ipSeq, Paths: builderPaths(a.paths), Known: a.known}
		if a.IP.IsValid() {
			rec.IP = a.IP.String()
		}
		rec.Hosts = encodeHosts(a.Hosts)
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("profile: save builder domain: %w", err)
		}
	}
	for _, pair := range pairs {
		if err := enc.Encode(uaPairRec{Host: pair[0], UA: pair[1]}); err != nil {
			return fmt.Errorf("profile: save builder ua pair: %w", err)
		}
	}
	return nil
}

// encodeHosts renders a host list, already in host order, as codec records.
func encodeHosts(hosts []*HostActivity) []codecHost {
	out := make([]codecHost, len(hosts))
	for i, ha := range hosts {
		out[i] = encodeHostActivity(ha)
	}
	return out
}

// sortedUAPairs returns the union of the (host, UA) pair sets in
// lexicographic order.
func sortedUAPairs(sets ...map[[2]string]bool) [][2]string {
	n := 0
	for _, set := range sets {
		n += len(set)
	}
	pairs := make([][2]string, 0, n)
	for _, set := range sets {
		for pair := range set {
			pairs = append(pairs, pair)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return slices.Compact(pairs)
}

// LoadBuilderFrom reads a builder section previously written by SaveTo,
// leaving the decoder positioned exactly past it. Corrupt sections —
// negative counts, duplicate domains, a domain's hosts out of order or
// repeating (they are appended to its sorted host list), visit totals that
// do not match the per-host times plus the known-visit counts, a host's UA
// list unsorted or repeating a UA, a host UA without its (host, UA) pair
// record — are refused with an error, never a panic.
func LoadBuilderFrom(dec *json.Decoder) (*IncrementalBuilder, error) {
	var hdr builderHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("profile: load builder header: %w", err)
	}
	if hdr.Version != builderCodecVersion {
		return nil, fmt.Errorf("profile: unsupported builder version %d", hdr.Version)
	}
	if hdr.Visits < 0 || hdr.Domains < 0 || hdr.UAPairs < 0 {
		return nil, fmt.Errorf("profile: corrupt builder header (visits=%d, domains=%d, uaPairs=%d)",
			hdr.Visits, hdr.Domains, hdr.UAPairs)
	}
	b := NewIncrementalBuilder()
	visits := 0
	// uaOf lists, in file order, the (domain, host, UA) of every non-empty
	// host UA, checked against the pair records once they have been read.
	var uaOf [][3]string
	for i := 0; i < hdr.Domains; i++ {
		var rec builderDomainRec
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("profile: load builder domain %d: %w", i, err)
		}
		if _, dup := b.perDomain[rec.Domain]; dup {
			return nil, fmt.Errorf("profile: duplicate builder domain %q", rec.Domain)
		}
		if rec.Known < 0 {
			return nil, fmt.Errorf("profile: builder domain %q: negative known-visit count %d", rec.Domain, rec.Known)
		}
		a := b.newAgg(rec.Domain)
		a.known, a.ipSeq = rec.Known, rec.IPSeq
		if len(rec.Hosts) > 0 {
			a.Hosts = carve(&b.hostsArena, len(rec.Hosts))
		}
		visits += rec.Known
		if rec.IP != "" {
			ip, err := netip.ParseAddr(rec.IP)
			if err != nil {
				return nil, fmt.Errorf("profile: builder domain %q: bad IP %q: %w", rec.Domain, rec.IP, err)
			}
			a.IP = ip
		}
		if len(rec.Paths) > maxPathsPerDomain {
			return nil, fmt.Errorf("profile: builder domain %q: %d retained paths exceeds the %d cap",
				rec.Domain, len(rec.Paths), maxPathsPerDomain)
		}
		if len(rec.Paths) > 0 {
			a.paths = carve(&b.pathsArena, len(rec.Paths))
		}
		for p, s := range rec.Paths {
			//lint:ignore maporder the retained-path set is unordered; every reader sorts or takes a max
			a.paths = append(a.paths, pathSeq{p, s})
		}
		for _, ch := range rec.Hosts {
			if n := len(a.Hosts); n > 0 && a.Hosts[n-1].Host >= ch.Host {
				return nil, fmt.Errorf("profile: builder domain %q: host %q out of order or repeated (after %q)",
					rec.Domain, ch.Host, a.Hosts[n-1].Host)
			}
			if err := checkHost(ch); err != nil {
				return nil, fmt.Errorf("profile: builder domain %q: %w", rec.Domain, err)
			}
			// The decoded Times and UAs are fresh slices: adopted as they are.
			ha := b.newHost(ch.Host, 0, 0)
			ha.Times, ha.NoRefVisits, ha.UAs = ch.Times, ch.NoRef, ch.UAs
			a.Hosts = append(a.Hosts, ha)
			visits += len(ha.Times)
			for _, ua := range ha.UAs {
				if ua != "" {
					uaOf = append(uaOf, [3]string{rec.Domain, ch.Host, ua})
				}
			}
		}
		b.link(a)
	}
	if visits != hdr.Visits {
		return nil, fmt.Errorf("profile: builder visit total %d does not match header %d", visits, hdr.Visits)
	}
	b.visits = visits
	for i := 0; i < hdr.UAPairs; i++ {
		var rec uaPairRec
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("profile: load builder ua pair %d: %w", i, err)
		}
		b.uaPairs[[2]string{rec.Host, rec.UA}] = true
	}
	// The day's UA history update reads the pairs alone (RunCursor.Add writes
	// a pair only when a host's UA set gains the UA), so a host UA without
	// its pair would silently never reach the history.
	for _, u := range uaOf {
		if !b.uaPairs[[2]string{u[1], u[2]}] {
			return nil, fmt.Errorf("profile: builder domain %q: host %q uses UA %q but the section has no (host, UA) pair record for it", u[0], u[1], u[2])
		}
	}
	return b, nil
}

// MaxSeq returns the largest arrival sequence number recorded in the
// builder's order-sensitive state (first-seen IPs and the path retention
// cap) — the value a checkpoint decoder validates against the engine's seq
// watermark, so a corrupt builder section cannot smuggle in state "from the
// future".
func (b *IncrementalBuilder) MaxSeq() uint64 {
	var max uint64
	for _, a := range b.perDomain {
		if a.ipSeq > max {
			max = a.ipSeq
		}
		for _, e := range a.paths {
			if e.seq > max {
				max = e.seq
			}
		}
	}
	return max
}

// Clone returns a deep copy sharing no mutable structure with b, so a
// checkpoint can snapshot a shard's partial under the engine's brief
// exclusive freeze and encode it afterwards while the ingest path keeps
// mutating the original. The copy's domains enter it in b's order.
func (b *IncrementalBuilder) Clone() *IncrementalBuilder {
	out := &IncrementalBuilder{
		perDomain: make(map[string]*incrementalAgg, len(b.perDomain)),
		uaPairs:   make(map[[2]string]bool, len(b.uaPairs)),
		visits:    b.visits,
	}
	for a := b.first; a != nil; a = a.next {
		out.link(out.copyAgg(a))
	}
	for pair := range b.uaPairs {
		out.uaPairs[pair] = true
	}
	return out
}

// copyAgg makes b's own deep copy of a. Strings are immutable and shared as
// they are: they keep the text block they were carved from reachable for as
// long as the copy lives.
func (b *IncrementalBuilder) copyAgg(a *incrementalAgg) *incrementalAgg {
	ca := b.newAgg(a.Domain)
	ca.known, ca.IP, ca.ipSeq = a.known, a.IP, a.ipSeq
	if len(a.paths) > 0 {
		ca.paths = append(carve(&b.pathsArena, len(a.paths)), a.paths...)
	}
	if len(a.Hosts) > 0 {
		ca.Hosts = carve(&b.hostsArena, len(a.Hosts))
	}
	for _, ha := range a.Hosts {
		cha := b.newHost(ha.Host, len(ha.Times), len(ha.UAs))
		cha.Times = append(cha.Times, ha.Times...)
		cha.NoRefVisits = ha.NoRefVisits
		cha.UAs = append(cha.UAs, ha.UAs...)
		ca.Hosts = append(ca.Hosts, cha)
	}
	return ca
}

// Split partitions the builder onto n fresh builders — the restore half of a
// domain-keyed checkpoint, which re-partitions however many shards the
// restoring engine runs. route assigns each domain its partition in [0, n) and
// the whole aggregate — hosts, known count, first-seen IP, retained paths —
// lands there: the engine passes its own ingest routing, so a domain's
// restored state and its future visits meet on one shard and the parts are
// domain-disjoint, as ClassifyDisjoint requires. Each part's domains keep
// the receiver's order. The (host, UA) pairs, which only matter unioned at
// day-close, go to partition 0. The receiver is consumed.
func (b *IncrementalBuilder) Split(n int, route func(domain string) int) []*IncrementalBuilder {
	if n < 1 {
		n = 1
	}
	parts := make([]*IncrementalBuilder, n)
	for i := range parts {
		parts[i] = NewIncrementalBuilder()
	}
	for a, next := b.first, (*incrementalAgg)(nil); a != nil; a = next {
		next = a.next // link relinks the aggregate
		p := parts[route(a.Domain)]
		p.link(a)
		p.visits += a.known
		for _, ha := range a.Hosts {
			p.visits += len(ha.Times)
		}
	}
	parts[0].uaPairs = b.uaPairs
	return parts
}

// HasDomain reports whether the builder holds visit state for the domain.
func (b *IncrementalBuilder) HasDomain(d string) bool {
	_, ok := b.perDomain[d]
	return ok
}

// DomainNames returns the builder's distinct domains in the order they
// entered it.
func (b *IncrementalBuilder) DomainNames() []string {
	out := make([]string, 0, len(b.perDomain))
	for a := b.first; a != nil; a = a.next {
		out = append(out, a.Domain)
	}
	return out
}
