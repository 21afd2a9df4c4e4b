package profile

import (
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/par"
)

// HostActivity aggregates one host's connections to one domain on one day.
type HostActivity struct {
	Host string
	// Times are the connection timestamps: in arrival order in a builder,
	// ascending in a snapshot's rare domains. Classification scans each rare
	// host's series and sorts, in place, only one found out of order.
	Times []time.Time
	// NoRefVisits counts visits without a web referer.
	NoRefVisits int
	// UAs are the distinct user-agent strings the host used toward the
	// domain, sorted ("" marks UA-less connections). Nearly every host uses
	// one, so a slice: a map per (host, domain) pair would cost more than the
	// rest of the pair.
	UAs []string
}

// addUA adds ua to the sorted set, reporting whether it was absent.
func (a *HostActivity) addUA(ua string) bool {
	i, found := slices.BinarySearch(a.UAs, ua)
	if !found {
		a.UAs = slices.Insert(a.UAs, i, ua)
	}
	return !found
}

// First returns the host's first connection time to the domain.
func (a *HostActivity) First() time.Time {
	if len(a.Times) == 0 {
		return time.Time{}
	}
	return a.Times[0]
}

// UsesNoReferer reports whether the host never sent a referer to the
// domain — the per-host criterion behind the NoRef feature.
func (a *HostActivity) UsesNoReferer() bool {
	return a.NoRefVisits == len(a.Times)
}

// maxPathsPerDomain caps the URL paths retained per domain; campaign URLs
// are few and repetitive, so a small cap suffices for clustering.
const maxPathsPerDomain = 16

// DomainActivity aggregates all activity toward one rare domain on one day.
type DomainActivity struct {
	Domain string
	// Hosts are the contacting hosts' activities, sorted by host. A rare domain
	// has fewer hosts than the popularity threshold by definition, so a sorted
	// slice — walked in order, searched by Host — rather than a map.
	Hosts []*HostActivity
	// IP is the destination address observed for the domain (first seen).
	IP netip.Addr
	// paths is the builder's seq-keyed retained-path set (a rare domain's
	// activity is its builder aggregate's own): a day classifies thousands of
	// rare domains and reads the paths of the handful it reports, so the
	// sorted list is materialised by Paths, on demand.
	paths []pathSeq
}

// pathSeq is one retained URL path and the smallest arrival seq it was seen at.
type pathSeq struct {
	path string
	seq  uint64
}

// Paths returns, sorted, the up to maxPathsPerDomain distinct URL paths
// observed toward the domain (none for DNS data); used by campaign
// clustering.
func (d *DomainActivity) Paths() []string {
	if len(d.paths) == 0 {
		return nil
	}
	out := make([]string, len(d.paths))
	for i, e := range d.paths {
		out[i] = e.path
	}
	sort.Strings(out)
	return out
}

// HostNames returns the contacting hosts in sorted order.
func (d *DomainActivity) HostNames() []string {
	out := make([]string, len(d.Hosts))
	for i, ha := range d.Hosts {
		out[i] = ha.Host
	}
	return out
}

// Host returns the named host's activity toward the domain, or nil when the
// host did not contact it.
func (d *DomainActivity) Host(name string) *HostActivity {
	if i, ok := searchHost(d.Hosts, name); ok {
		return d.Hosts[i]
	}
	return nil
}

// searchHost finds name in a host list sorted by host: its index and true, or
// the index it would be inserted at and false.
func searchHost(hosts []*HostActivity, name string) (int, bool) {
	return slices.BinarySearchFunc(hosts, name, func(ha *HostActivity, name string) int {
		return strings.Compare(ha.Host, name)
	})
}

// NumHosts returns the domain connectivity (the NoHosts feature).
func (d *DomainActivity) NumHosts() int { return len(d.Hosts) }

// Snapshot is the reduced view of one day: the rare destinations and the
// indexes the belief propagation algorithm walks (dom_host and host_rdom in
// Algorithm 1). dom_host is each rare activity's host list; host_rdom is
// HostRare, built on first use.
type Snapshot struct {
	Day time.Time
	// NewDomains is the count of domains never seen in the history.
	NewDomains int
	// AllDomains is the count of distinct external domains today.
	AllDomains int
	// Rare maps each rare (new + unpopular) domain to its activity.
	Rare map[string]*DomainActivity
	// rare holds Rare's values in domain order, produced once by the
	// classification pass (RareActivities).
	rare []*DomainActivity
	// hostRare is host_rdom, built from rare by the first HostRare call: only
	// belief propagation and calibration's similarity examples read it, and
	// many closes run neither over any host.
	hostRareOnce sync.Once
	hostRare     map[string][]string
	// domains is the full distinct domain list for the end-of-day history
	// update.
	domains []string
	// uaPairs are the parts' (host, UA) pair sets, kept as they are for
	// Commit: their union is the day's pair set (a pair may sit in several),
	// and nothing before the commit reads it.
	uaPairs []map[[2]string]bool
}

// incrementalAgg is the pre-classification aggregation of one domain's
// visits: the DomainActivity a rare domain's classification hands the
// snapshot as it stands, plus what only the fold needs. The two
// order-sensitive decisions of the sequential reduction — which destination
// IP is "first seen" and which 16 URL paths beat the retention cap — are keyed by the visit's arrival sequence number instead
// of apply order, so the aggregate is a pure function of the (seq, visit)
// multiset: partitions can absorb their share of a day in any order (the
// streaming shards apply concurrent batches as they drain) and still merge
// into exactly the state a single sequential pass over the seq-ordered day
// would have produced.
type incrementalAgg struct {
	// DomainActivity's Domain is the builder's key for the aggregate; Hosts is
	// empty until the first profiled visit (a domain folded only through
	// AddKnown is a bare marker); IP is the first-seen address, by ipSeq.
	// paths holds each retained URL path with the smallest arrival seq it was
	// seen at, keeping the maxPathsPerDomain paths with the smallest
	// first-occurrence seqs — exactly the set a seq-ordered scan admits
	// before the cap fills. Unordered; a path is owned (copied into the
	// builder's text block on admission), so the set never pins the decoder
	// block its visit's URL was carved from.
	DomainActivity
	// known counts the visits folded through RunCursor.AddKnown — visits to
	// a domain the history already held when they arrived. They are counted,
	// not profiled: classifyAgg discards every such domain, so nothing else
	// about them can reach a report.
	known int
	ipSeq uint64
	// pathSeqBound caches the largest retained seq of a full set, as found
	// by admitPath's last scan, so the newcomers of a busy domain — nearly
	// all of which arrive later than everything retained — are rejected
	// without walking the set. Every mutation of a full set (a displacement,
	// an existing path's seq lowered) can only lower the true maximum, so
	// the cached value stays an upper bound and a rejection on it stays
	// exact (a retained path's seq is at most the bound, so a later
	// occurrence of it would not lower it either); it is re-tightened by the
	// next scan. Zero = no scan yet.
	pathSeqBound uint64
	// next links the aggregate to the one entered into its builder after it
	// (IncrementalBuilder.first).
	next *incrementalAgg
}

// admitPath offers one path occurrence to a's bounded retention set, copying
// an admitted path into the builder's text block.
func (b *IncrementalBuilder) admitPath(a *incrementalAgg, pth string, seq uint64) {
	full := len(a.paths) == maxPathsPerDomain
	if full && a.pathSeqBound != 0 && seq >= a.pathSeqBound {
		return
	}
	evict := 0 // the largest-seq entry
	for i := range a.paths {
		e := &a.paths[i]
		if e.path == pth {
			if seq < e.seq {
				e.seq = seq
			}
			return
		}
		if e.seq > a.paths[evict].seq {
			evict = i
		}
	}
	if !full {
		if a.paths == nil {
			a.paths = carve(&b.pathsArena, pathsCarve)
		}
		a.paths = append(a.paths, pathSeq{b.text.Copy(pth), seq})
		return
	}
	// Full: the newcomer displaces the largest-seq entry iff it is earlier.
	// (In seq-ordered absorption this never displaces — newcomers always
	// carry the largest seq so far — reproducing the plain "first 16
	// distinct paths win" cap.)
	a.pathSeqBound = a.paths[evict].seq
	if seq < a.pathSeqBound {
		a.paths[evict] = pathSeq{b.text.Copy(pth), seq}
	}
}

// mergeAgg folds another partition's aggregate of the same domain into a,
// which the builder owns. Host lists are merged copy-on-write (neither input
// list nor HostActivity is mutated), so merging is safe even when the
// partitions split a (host, domain) pair.
func (b *IncrementalBuilder) mergeAgg(a, o *incrementalAgg) {
	a.known += o.known
	a.Hosts = b.mergeHosts(a.Hosts, o.Hosts)
	if o.IP.IsValid() && (!a.IP.IsValid() || o.ipSeq < a.ipSeq) {
		a.IP, a.ipSeq = o.IP, o.ipSeq
	}
	for _, e := range o.paths {
		b.admitPath(a, e.path, e.seq)
	}
}

// mergeHosts unions two host lists sorted by host into a new one, combining a
// host both hold into a new HostActivity; an empty side returns the other as
// it is.
func (b *IncrementalBuilder) mergeHosts(x, y []*HostActivity) []*HostActivity {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make([]*HostActivity, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch c := strings.Compare(x[0].Host, y[0].Host); {
		case c < 0:
			out, x = append(out, x[0]), x[1:]
		case c > 0:
			out, y = append(out, y[0]), y[1:]
		default:
			out = append(out, b.mergeHostActivity(x[0], y[0]))
			x, y = x[1:], y[1:]
		}
	}
	return append(append(out, x...), y...)
}

func (b *IncrementalBuilder) mergeHostActivity(x, y *HostActivity) *HostActivity {
	out := b.newHost(x.Host, len(x.Times)+len(y.Times), len(x.UAs)+len(y.UAs))
	out.NoRefVisits = x.NoRefVisits + y.NoRefVisits
	out.Times = append(append(out.Times, x.Times...), y.Times...)
	out.UAs = append(out.UAs, x.UAs...)
	for _, ua := range y.UAs {
		out.addUA(ua)
	}
	return out
}

// IncrementalBuilder accumulates the per-domain aggregation of one
// partition of a day's visits as they arrive, deferring everything that
// needs the complete day — rare-destination classification against the
// History, per-host timestamp ordering — to day-close. The streaming engine
// keeps one builder per shard and feeds it from the shard apply path, so
// rollover classifies ready-made aggregates instead of re-reducing the whole
// day; the batch snapshot build runs on the same builder with
// seq = visit index. A domain key is cloned and a URL path copied into the
// builder's own text block as they enter, so the builder never keeps a window
// into a decoder's block (logs.TextBlock's copy-to-keep rule); hosts and user
// agents are interned strings and are kept as they are. The shards — and only
// they — fold visits to domains the history already holds through
// RunCursor.AddKnown, which keeps a marker and a count instead of a profile.
//
// seq is the visit's arrival sequence number: any strictly ordered,
// per-visit-unique value. The builder's state depends only on the set of
// (seq, visit) pairs added, never on the order of Add calls. A builder is
// not safe for concurrent use; partitions handed to MergeSnapshotParallel
// must hold disjoint (seq, visit) sets, those handed to ClassifyDisjoint
// disjoint domain sets.
type IncrementalBuilder struct {
	perDomain map[string]*incrementalAgg
	// first and last are the ends of the list, linked through next, of
	// perDomain's values in the order they entered the builder. A new domain's
	// aggregate is cut from the slab as it enters, so a walk of the list reads
	// the slab — and the arenas its hosts were carved from — in the order it
	// was laid down, where a walk of the map jumps around it. Every writer of
	// perDomain enters through link; the walks (classification, Clone,
	// SaveTo, Split) follow the list, so their order is the builder's own,
	// never the map's.
	first, last *incrementalAgg
	// uaPairs is the day's (host, UA) pair set the UA history is updated
	// from. Invariant: every non-empty UA in a host's UA set, in any builder
	// of the day, has its pair in the union of the day's builders' uaPairs —
	// RunCursor.Add writes a pair only when a UA set gains the UA, Clone and
	// Split carry the sets along and SaveTo unions them; LoadBuilderFrom
	// refuses a section that breaks it.
	uaPairs map[[2]string]bool
	visits  int

	// The builder's state is made per block, not per thing: everything below
	// dies with the builder (a shard-day's all at once, at rollover), so a day
	// of many fresh domains costs one allocation per block instead of several
	// per domain. aggSlab and hostSlab are the current blocks aggregates and
	// host activities are cut from (newAgg, newHost — every maker of either
	// goes through them). The arenas are the current blocks a new host's
	// Times and UA set, a newly profiled domain's host list and a domain's
	// first retained paths take their initial capacity from (carve); each
	// carve is capacity-clipped, so growth past it reallocates privately and
	// can never scribble on a neighbour's slots. text holds the admitted
	// paths; a domain key outlives the day, so Run clones it instead.
	aggSlab    []incrementalAgg
	hostSlab   []HostActivity
	timesArena []time.Time
	hostsArena []*HostActivity
	uaArena    []string
	pathsArena []pathSeq
	text       logs.TextBlock
}

// NewIncrementalBuilder returns an empty partition builder.
func NewIncrementalBuilder() *IncrementalBuilder {
	return &IncrementalBuilder{
		perDomain: make(map[string]*incrementalAgg),
		uaPairs:   make(map[[2]string]bool),
	}
}

const (
	// timesCarve is the initial Times capacity granted to each new host.
	timesCarve = 8
	// uasCarve is the initial UA-set capacity granted to each new host: nearly
	// every host uses one user agent toward a domain.
	uasCarve = 1
	// hostsCarve is the initial host-list capacity granted to each newly
	// profiled domain: most rare domains have one or two hosts.
	hostsCarve = 2
	// pathsCarve is the initial retained-path capacity granted to a domain's
	// first path.
	pathsCarve = 4
	// firstBlock and arenaBlock bound the block sizes, in elements, of every
	// slab and arena: a builder's first block is small and each next one
	// doubles up to arenaBlock, so a builder holding a few domains — a quiet
	// shard, a clone of one for a checkpoint or a preview — stays small.
	firstBlock = 32
	arenaBlock = 1024
	// carveMax is the largest capacity cut from an arena; a larger one (only
	// copies and merges of long series ask) gets a slice of its own.
	carveMax = arenaBlock / 8
)

// nextBlock is the size of the block that follows one of size prev.
func nextBlock(prev int) int { return min(max(2*prev, firstBlock), arenaBlock) }

// carve cuts an empty slice with n private capacity from the arena, starting a
// new block when the current one is short.
func carve[T any](arena *[]T, n int) []T {
	if n > carveMax {
		return make([]T, 0, n)
	}
	if cap(*arena)-len(*arena) < n {
		*arena = make([]T, 0, max(n, nextBlock(cap(*arena))))
	}
	i := len(*arena)
	*arena = (*arena)[:i+n]
	return (*arena)[i : i : i+n]
}

// slabNew cuts one zero value from the slab, starting a new block when the
// current one is full.
func slabNew[T any](slab *[]T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, nextBlock(cap(*slab)))
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// newAgg makes an empty aggregate for domain, whose bytes the caller has
// already made its own to keep (Run clones a decoded name; a clone, merge or
// load passes a name it owns).
func (b *IncrementalBuilder) newAgg(domain string) *incrementalAgg {
	a := slabNew(&b.aggSlab)
	a.Domain = domain
	return a
}

// link enters a under its domain, at the end of the builder's list.
func (b *IncrementalBuilder) link(a *incrementalAgg) {
	b.perDomain[a.Domain] = a
	a.next = nil
	if b.last == nil {
		b.first = a
	} else {
		b.last.next = a
	}
	b.last = a
}

// newHost makes an empty activity for host with room for nTimes timestamps
// and nUAs user agents.
func (b *IncrementalBuilder) newHost(host string, nTimes, nUAs int) *HostActivity {
	ha := slabNew(&b.hostSlab)
	ha.Host = host
	ha.Times = carve(&b.timesArena, nTimes)
	ha.UAs = carve(&b.uaArena, nUAs)
	return ha
}

// RunCursor folds a run of same-domain visits into its builder with the
// (domain → aggregate) pointer resolved once per run and the
// (host → HostActivity) pointer memoized across consecutive same-host
// visits. The fold is identical to per-visit Add — the cursor only elides
// lookups — so cursor-fed and Add-fed builders are indistinguishable. A
// cursor is invalidated by any other mutation of its builder (another
// cursor, Add); obtain a fresh one per run.
type RunCursor struct {
	b   *IncrementalBuilder
	agg *incrementalAgg
	ha  *HostActivity
}

// Run starts a run of visits for one domain, creating the domain's
// aggregate if absent. Every visit subsequently folded through the cursor
// must carry exactly this domain. A domain entering the builder is cloned:
// the key outlives the day (it becomes the snapshot's and the history's copy
// of the name), so it can share neither its decoder's text block nor the
// builder's, which die sooner.
func (b *IncrementalBuilder) Run(domain string) RunCursor {
	a, ok := b.perDomain[domain]
	if !ok {
		a = b.newAgg(strings.Clone(domain))
		b.link(a)
	}
	return RunCursor{b: b, agg: a}
}

// Profiled reports whether the run's domain already holds a profiled visit
// in this builder (one folded through Add, now or earlier in the day). The
// streaming shards read it as "this domain was found absent from the history
// today": such a domain skips the history lookup for the rest of the day.
func (c *RunCursor) Profiled() bool { return len(c.agg.Hosts) > 0 }

// Add folds one visit of the run; v.Domain must equal the run's domain.
func (c *RunCursor) Add(seq uint64, v *logs.Visit) {
	a, b := c.agg, c.b
	if v.DestIP.IsValid() && (!a.IP.IsValid() || seq < a.ipSeq) {
		a.IP, a.ipSeq = v.DestIP, seq
	}
	if pth := urlPath(v.URL); pth != "" {
		b.admitPath(a, pth, seq)
	}
	ha := c.ha
	if ha == nil || ha.Host != v.Host {
		i, found := searchHost(a.Hosts, v.Host)
		if found {
			ha = a.Hosts[i]
		} else {
			if a.Hosts == nil {
				a.Hosts = carve(&b.hostsArena, hostsCarve)
			}
			ha = b.newHost(v.Host, timesCarve, uasCarve)
			a.Hosts = slices.Insert(a.Hosts, i, ha)
		}
		c.ha = ha
	}
	ha.Times = append(ha.Times, v.Time)
	if !v.HasRef {
		ha.NoRefVisits++
	}
	ua := ""
	if v.HasUA {
		ua = v.UserAgent
	}
	// The (host, UA) pair is written when the host's UA set gains the UA, not
	// per visit: an earlier visit that put it in the set wrote it then.
	if ha.addUA(ua) && v.HasUA {
		b.uaPairs[[2]string{v.Host, ua}] = true
	}
	b.visits++
}

// AddKnown folds one visit of the run as a known-domain marker: the caller
// has observed the run's domain in the History the day will be classified
// against. The history only grows and "new" is judged at day-close or later,
// so that verdict is final — classifyAgg will discard the domain whatever its
// aggregate holds — and the fold keeps only what survives classification: the
// domain's presence (Run created the marker aggregate, so the day's domain
// count and the list Commit receives are unchanged), the visit count
// (Visits, Split and the codec's total stay exact) and the (host, UA) pair
// the UA history is updated from. No HostActivity, timestamp, UA set, path
// or first-seen IP is created. Folding a visit this way whose domain is NOT
// in the history at classification is a caller bug: the domain would be
// reported new with the marked visits' hosts missing.
//
// The streaming shards never mix Add and AddKnown on one domain: a domain
// lives on one shard, which profiles it for the rest of the day once it has
// (Profiled), and a domain first seen in the history stays there. The fold
// itself allows the mix — an aggregate then carries both kinds of state until
// classification discards it — because builder sections written by engines
// that sharded by (host, domain) pair can hold it, and so can any caller
// partitioning by pair.
func (c *RunCursor) AddKnown(v *logs.Visit) {
	if v.HasUA {
		c.b.uaPairs[[2]string{v.Host, v.UserAgent}] = true
	}
	c.agg.known++
	c.b.visits++
}

// Add folds one visit into the partition.
func (b *IncrementalBuilder) Add(seq uint64, v *logs.Visit) {
	c := b.Run(v.Domain)
	c.Add(seq, v)
}

// Visits returns how many visits the partition has absorbed.
func (b *IncrementalBuilder) Visits() int { return b.visits }

// Domains returns how many distinct domains the partition has seen.
func (b *IncrementalBuilder) Domains() int { return len(b.perDomain) }

// EachProfiled calls fn once per domain the partition has profiled (at least
// one visit folded through Add), with the domain's per-host activities sorted
// by host. The walk is read-only: fn must not modify the list or the
// activities, whose Times are in arrival order, not sorted. Domains arrive in
// the order they entered the builder.
func (b *IncrementalBuilder) EachProfiled(fn func(domain string, hosts []*HostActivity)) {
	for a := b.first; a != nil; a = a.next {
		if len(a.Hosts) > 0 {
			fn(a.Domain, a.Hosts)
		}
	}
}

// KnownVisits returns how many of the domain's visits the partition folded
// as known-domain markers (AddKnown); 0 for a domain it does not hold.
func (b *IncrementalBuilder) KnownVisits(domain string) int {
	if a := b.perDomain[domain]; a != nil {
		return a.known
	}
	return 0
}

// classifyAgg runs the rare-destination selection (§III-A) for one
// domain's complete aggregate: new (absent from the history) and unpopular
// (fewer than unpopularThreshold distinct hosts). An aggregate that counted a
// known visit is historical by AddKnown's contract — its caller saw the domain
// in this history, which only grows — so it skips the locked lookup. A rare
// domain's activity is the aggregate's own.
func classifyAgg(a *incrementalAgg, hist *History, unpopularThreshold int) (isNew bool, da *DomainActivity) {
	if a.known > 0 || hist.SeenDomain(a.Domain) {
		return false, nil
	}
	if len(a.Hosts) >= unpopularThreshold {
		return true, nil
	}
	return true, &a.DomainActivity
}

// addRuns feeds visits (all of them when idx is nil, else the selected
// subsequence, with seq = global visit index either way) into b through a
// RunCursor, re-resolving the cursor only when the domain changes between
// consecutive visits. Real traffic and replayed datasets arrive heavily
// clustered by domain, so this amortizes the per-domain map lookup the
// same way the streaming shards' batch regrouping does.
//
// Every visit goes through Add, never AddKnown: the batch build is the
// unfiltered fold that every streamed report is byte-compared with, and an
// oracle that shared the streaming shards' history filter could not catch
// the filter being wrong.
func addRuns(b *IncrementalBuilder, visits []logs.Visit, idx []int32) {
	var cur RunCursor
	domain := ""
	feed := func(i int) {
		v := &visits[i]
		if cur.agg == nil || v.Domain != domain {
			cur = b.Run(v.Domain)
			domain = v.Domain
		}
		cur.Add(uint64(i), v)
	}
	if idx == nil {
		for i := range visits {
			feed(i)
		}
		return
	}
	for _, i := range idx {
		feed(int(i))
	}
}

// NewSnapshot classifies the day's visits against the history: a domain is
// new if absent from the history and rare if additionally contacted by
// fewer than unpopularThreshold distinct hosts today (§III-A, §IV-A; the
// paper sets the threshold to 10 on SOC advice).
func NewSnapshot(day time.Time, visits []logs.Visit, hist *History, unpopularThreshold int) *Snapshot {
	return NewSnapshotParallel(day, visits, hist, unpopularThreshold, 1)
}

// parallelCutoff is the day size below which the partitioned build is not
// worth its fan-out overhead.
const parallelCutoff = 4096

// NewSnapshotParallel is NewSnapshot with the per-domain aggregation fanned
// out over a worker pool: the visits are hash-partitioned by domain into one
// IncrementalBuilder per worker, and ClassifyDisjoint classifies and assembles
// them — the same pass the streaming engine runs at rollover, so the snapshot
// is identical for any worker count. workers <= 0 uses GOMAXPROCS.
func NewSnapshotParallel(day time.Time, visits []logs.Visit, hist *History, unpopularThreshold, workers int) *Snapshot {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(visits) < parallelCutoff {
		workers = 1
	}
	parts := make([]*IncrementalBuilder, workers)
	if workers == 1 {
		parts[0] = NewIncrementalBuilder()
		addRuns(parts[0], visits, nil)
	} else {
		// One sequential pass assigns every visit to its domain's partition;
		// each worker then feeds its builder the selected subsequence with
		// seq = global visit index.
		idx := make([][]int32, workers)
		est := len(visits)/workers + 16
		for p := range idx {
			idx[p] = make([]int32, 0, est)
		}
		for i := range visits {
			p := int(domainPartition(visits[i].Domain) % uint32(workers))
			idx[p] = append(idx[p], int32(i))
		}
		par.ForEachIndex(workers, workers, func(w int) {
			parts[w] = NewIncrementalBuilder()
			addRuns(parts[w], visits, idx[w])
		})
	}
	return ClassifyDisjoint(day, parts, hist, unpopularThreshold, workers)
}

// fanOut resolves a workers argument for a day held in parts: <= 0 means
// GOMAXPROCS, and a day below parallelCutoff runs on one.
func fanOut(parts []*IncrementalBuilder, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := 0
	for _, p := range parts {
		total += p.visits
	}
	if total < parallelCutoff {
		workers = 1
	}
	return workers
}

// ClassifyDisjoint assembles a day snapshot from partition builders no two of
// which hold the same domain — the streaming engine's shards (it routes by
// domain) and NewSnapshotParallel's partitions. Every aggregate is then
// already complete, so there is nothing to merge: the parts' entries are
// flattened into one slice, each part's in the order its domains entered it
// (so a range reads its part's slabs and arenas in the order they were laid
// down), and classified in contiguous ranges, one per worker, which keeps the
// fan-out a function of workers rather than of the part count and lets a part
// holding most of the day spread over every worker.
// The result — and hence every report derived from it — is the sequential
// reduction of the same visits in seq order, for any domain partition, apply
// order and worker count. workers <= 0 uses GOMAXPROCS.
//
// The snapshot shares structure with the builders (host lists, path sets and
// pair sets are adopted, rare per-host timestamps are sorted in place), so
// the partitions must not absorb further visits once the snapshot is in use;
// the streaming engine guarantees this by swapping fresh builders in at
// rollover.
func ClassifyDisjoint(day time.Time, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot {
	n := 0
	for _, p := range parts {
		n += len(p.perDomain)
	}
	entries := make([]*incrementalAgg, 0, n)
	for _, p := range parts {
		for a := p.first; a != nil; a = a.next {
			entries = append(entries, a)
		}
	}
	return classify(day, entries, parts, hist, unpopularThreshold, fanOut(parts, workers))
}

// MergeSnapshotParallel is ClassifyDisjoint for parts that may overlap by
// domain — any partition of the day's (seq, visit) set, e.g. by (host, domain)
// pair, where a domain's hosts spread across parts. Overlapping aggregates are
// first unioned, exactly, because every order-sensitive decision the builder
// recorded is keyed by arrival seq; the union's entries then go through the
// same classification. The merge does not mutate the builders: an aggregate
// held by one part is adopted as it stands, one held by several is combined
// into a private copy, made by a builder private to the merge.
func MergeSnapshotParallel(day time.Time, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot {
	workers = fanOut(parts, workers)

	// One sequential pass buckets every (domain, aggregate) entry by its
	// owner worker (domain hash), so each worker walks only its own share
	// instead of rescanning every part. A domain's aggregates land in its
	// bucket in part index order, which keeps the copy-on-write union below
	// deterministic.
	buckets := make([][]*incrementalAgg, workers)
	for _, p := range parts {
		for a := p.first; a != nil; a = a.next {
			w := 0
			if workers > 1 {
				w = int(domainPartition(a.Domain) % uint32(workers))
			}
			buckets[w] = append(buckets[w], a)
		}
	}
	unions := make([][]*incrementalAgg, workers)
	par.ForEachIndex(workers, workers, func(w int) {
		bucket := buckets[w]
		// at is a domain's index in union. A domain first met is adopted as it
		// stands; a second occurrence forces a private copy (owned), so no
		// builder state is mutated by the merge.
		at := make(map[string]int, len(bucket))
		union := make([]*incrementalAgg, 0, len(bucket))
		owned := make([]bool, 0, len(bucket))
		priv := NewIncrementalBuilder()
		for _, a := range bucket {
			i, ok := at[a.Domain]
			if !ok {
				at[a.Domain] = len(union)
				union = append(union, a)
				owned = append(owned, false)
				continue
			}
			if !owned[i] {
				own := priv.newAgg(a.Domain)
				priv.mergeAgg(own, union[i])
				union[i], owned[i] = own, true
			}
			priv.mergeAgg(union[i], a)
		}
		unions[w] = union
	})
	return classify(day, slices.Concat(unions...), parts, hist, unpopularThreshold, workers)
}

// classify is the one classification pass behind every snapshot build:
// entries holds each of the day's domains once, with its complete aggregate;
// parts contribute only their (host, UA) pair sets, which the snapshot keeps
// for Commit without unioning them. Contiguous ranges of entries are
// classified concurrently; each range puts a rare domain's host series in
// time order as it classifies the domain, while its state is at hand, then
// sorts its survivors by domain, and the ranges' sorted runs are merged.
func classify(day time.Time, entries []*incrementalAgg, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot {
	s := &Snapshot{
		Day:        day,
		AllDomains: len(entries),
		domains:    make([]string, len(entries)),
	}
	ranges := max(1, min(workers, len(entries)))
	runs := make([][]*DomainActivity, ranges)
	newCnt := make([]int, ranges)
	par.ForEachIndex(ranges, workers, func(r int) {
		lo, hi := r*len(entries)/ranges, (r+1)*len(entries)/ranges
		var rare []*DomainActivity
		n := 0
		for i, a := range entries[lo:hi] {
			s.domains[lo+i] = a.Domain
			isNew, da := classifyAgg(a, hist, unpopularThreshold)
			if isNew {
				n++
			}
			if da != nil {
				orderTimes(da)
				rare = append(rare, da)
			}
		}
		slices.SortFunc(rare, func(a, b *DomainActivity) int { return strings.Compare(a.Domain, b.Domain) })
		newCnt[r] = n
		runs[r] = rare
	})
	for _, n := range newCnt {
		s.NewDomains += n
	}
	s.setRare(runs)
	s.uaPairs = make([]map[[2]string]bool, len(parts))
	for i, p := range parts {
		s.uaPairs[i] = p.uaPairs
	}
	return s
}

// orderTimes puts every contacting host's timestamps in time order — the only
// place the arrival ordering the builder didn't preserve is needed, and only
// for the day's rare survivors. A series that arrived in order, as most do,
// costs one scan instead of a sort.
func orderTimes(da *DomainActivity) {
	for _, ha := range da.Hosts {
		if !inOrder(ha.Times) {
			slices.SortFunc(ha.Times, time.Time.Compare)
		}
	}
}

// inOrder reports whether times are ascending (equal neighbours allowed):
// slices.IsSortedFunc with time.Time.Compare, inlined.
func inOrder(times []time.Time) bool {
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			return false
		}
	}
	return true
}

// setRare installs domain-disjoint runs, each in domain order, as the
// snapshot's rare set: their orders merged into the one domain-sorted activity
// slice, and the Rare map over it.
func (s *Snapshot) setRare(runs [][]*DomainActivity) {
	// Pairwise rounds: every entry is copied once per round, log2(runs) rounds.
	for len(runs) > 1 {
		half := runs[:(len(runs)+1)/2]
		for i := range half {
			if 2*i+1 < len(runs) {
				half[i] = mergeSorted(runs[2*i], runs[2*i+1])
			} else {
				half[i] = runs[2*i]
			}
		}
		runs = half
	}
	s.rare = runs[0]
	s.Rare = make(map[string]*DomainActivity, len(s.rare))
	for _, da := range s.rare {
		s.Rare[da.Domain] = da
	}
}

// mergeSorted merges two activity lists sorted by domain into one; an empty
// side returns the other as it is.
func mergeSorted(a, b []*DomainActivity) []*DomainActivity {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]*DomainActivity, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].Domain < a[0].Domain {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// domainPartition hashes a domain onto a partition (FNV-1a). Any stable
// hash works — the partition assignment never leaks into the snapshot.
func domainPartition(domain string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return h
}

// PairPartition deterministically assigns a (host, domain) pair to one of
// n partitions (FNV-1a over host, a separator, domain): the reference
// partitioner for parts that overlap by domain, which is what
// MergeSnapshotParallel's union exists for. Nothing in the product partitions
// this way any more (the engine sharded by pair until its shards stopped
// needing a pair's visits in one place); the benchmark's traced close and the
// arbitrary-partition property tests do.
func PairPartition(host, domain string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	h ^= 0xff
	h *= 16777619
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// RareCount returns the number of rare destinations today.
func (s *Snapshot) RareCount() int { return len(s.Rare) }

// RareActivities returns the rare domains' activities in domain order — the
// values of Rare, sorted once at classification. The slice is the snapshot's
// own: callers must not modify it.
func (s *Snapshot) RareActivities() []*DomainActivity { return s.rare }

// HostRare returns the rare domains host contacted today, in domain order —
// its host_rdom entry in Algorithm 1 — or nil for a host that contacted none.
// The index is built by the first call, so a snapshot nobody asks builds
// none. Safe for concurrent use; the slice is the snapshot's own: callers
// must not modify it.
func (s *Snapshot) HostRare(host string) []string {
	s.hostRareOnce.Do(s.indexHosts)
	return s.hostRare[host]
}

// indexHosts builds host_rdom from one walk of the domain-sorted rare slice:
// every (host, rare domain) pair is tagged with its host's slot, and a
// counting sort by slot lays each host's domains, still in domain order, into
// one shared array: one map lookup a pair and one allocation for every list,
// instead of a map assignment a pair and a reallocation each time a host's
// list doubles.
func (s *Snapshot) indexHosts() {
	type pair struct {
		slot   int
		domain string
	}
	slots := make(map[string]int)
	var hosts []string
	var pairs []pair
	for _, da := range s.rare {
		for _, ha := range da.Hosts {
			i, ok := slots[ha.Host]
			if !ok {
				i = len(hosts)
				slots[ha.Host] = i
				hosts = append(hosts, ha.Host)
			}
			pairs = append(pairs, pair{i, da.Domain})
		}
	}
	// start[i] ends as the index of host i's first domain in all.
	start := make([]int, len(hosts)+1)
	for _, p := range pairs {
		start[p.slot+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	all := make([]string, len(pairs))
	next := slices.Clone(start)
	for _, p := range pairs {
		all[next[p.slot]] = p.domain
		next[p.slot]++
	}
	s.hostRare = make(map[string][]string, len(hosts))
	for i, h := range hosts {
		s.hostRare[h] = all[start[i]:start[i+1]:start[i+1]]
	}
}

// urlPath extracts the path component (with the query marker preserved, as
// the paper reports patterns like "/logo.gif?") from a URL without a full
// parse: scheme and authority are skipped, the fragment dropped, and the
// query reduced to a bare "?". A visit without a URL (DNS data, netflow
// pseudo-domains) has no path, nor does a URL that is not absolute. The result
// may be a substring of rawURL.
func urlPath(rawURL string) string {
	_, s, ok := strings.Cut(rawURL, "://")
	if !ok {
		return ""
	}
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return "/"
	}
	s = s[slash:]
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i+1] // keep the bare "?" marker
	}
	return s
}

// Commit folds the day into the history: every domain seen today joins the
// destination history and every (host, UA) pair joins the UA history, under
// one acquisition of the history's lock. Call once per day, after detection
// has run.
func (s *Snapshot) Commit(hist *History) {
	hist.commitDay(s.Day, s.domains, s.uaPairs)
}
