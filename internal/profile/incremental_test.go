package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/logs"
)

// partitioning is one way of cutting a day into builders, with the snapshot
// entry that accepts such parts. Every equivalence test below runs both: the
// (host, domain) pair partition, where a domain's hosts spread across parts —
// the overlapping case MergeSnapshotParallel's union exists for — and the
// domain partition the streaming engine shards by, which goes straight to
// ClassifyDisjoint.
type partitioning struct {
	name     string
	of       func(v *logs.Visit, n int) int
	snapshot func(day time.Time, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot
}

func domainOf(domain string, n int) int { return int(domainPartition(domain) % uint32(n)) }

var partitionings = []partitioning{
	{"pair/merge", func(v *logs.Visit, n int) int { return PairPartition(v.Host, v.Domain, n) }, MergeSnapshotParallel},
	{"domain/classify", func(v *logs.Visit, n int) int { return domainOf(v.Domain, n) }, ClassifyDisjoint},
}

// buildParts splits visits into partition builders as pt assigns them and
// feeds each builder its share in the given per-partition apply order (seq
// stays the global visit index either way). Visits for which known (when
// non-nil) reports true are folded through AddKnown — the streaming shards'
// history filter — the rest through Add.
func buildParts(visits []logs.Visit, pt partitioning, parts int, shuffle *rand.Rand, known func(i int) bool) []*IncrementalBuilder {
	idx := make([][]int, parts)
	for i := range visits {
		p := pt.of(&visits[i], parts)
		idx[p] = append(idx[p], i)
	}
	out := make([]*IncrementalBuilder, parts)
	for p := range out {
		if shuffle != nil {
			shuffle.Shuffle(len(idx[p]), func(a, b int) { idx[p][a], idx[p][b] = idx[p][b], idx[p][a] })
		}
		out[p] = NewIncrementalBuilder()
		for _, i := range idx[p] {
			if known != nil && known(i) {
				c := out[p].Run(visits[i].Domain)
				c.AddKnown(&visits[i])
			} else {
				out[p].Add(uint64(i), &visits[i])
			}
		}
	}
	return out
}

// assertSnapshotsEqual compares every field of two snapshots that any
// report consumer can observe, with the per-host timestamps normalized the
// way classification leaves them (sorted for rare domains).
func assertSnapshotsEqual(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.AllDomains != want.AllDomains || got.NewDomains != want.NewDomains {
		t.Fatalf("%s: counts all=%d new=%d, want all=%d new=%d",
			label, got.AllDomains, got.NewDomains, want.AllDomains, want.NewDomains)
	}
	if len(got.Rare) != len(want.Rare) {
		t.Fatalf("%s: %d rare domains, want %d", label, len(got.Rare), len(want.Rare))
	}
	for d, wda := range want.Rare {
		gda, ok := got.Rare[d]
		if !ok {
			t.Fatalf("%s: rare domain %s missing", label, d)
		}
		// The retained paths compare as the set readers see; the seqs behind
		// them are the builder's.
		if gda.Domain != wda.Domain || gda.IP != wda.IP || !reflect.DeepEqual(gda.Hosts, wda.Hosts) ||
			!reflect.DeepEqual(gda.Paths(), wda.Paths()) {
			t.Fatalf("%s: rare domain %s differs:\ngot  %+v\nwant %+v", label, d, gda, wda)
		}
	}
	if !reflect.DeepEqual(rareNames(got), rareNames(want)) {
		t.Fatalf("%s: RareActivities differ:\ngot  %v\nwant %v", label, rareNames(got), rareNames(want))
	}
	assertHostRare(t, label, got, want)
	if !reflect.DeepEqual(pairUnion(got), pairUnion(want)) {
		t.Fatalf("%s: uaPairs differ", label)
	}
	gd := append([]string(nil), got.domains...)
	wd := append([]string(nil), want.domains...)
	sort.Strings(gd)
	sort.Strings(wd)
	if !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: domain lists differ", label)
	}
}

// assertHostRare compares host_rdom through HostRare, host by host, over
// every host either side indexes (the reference installs its own index), and
// reads nil from both for a host neither saw.
func assertHostRare(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	got.HostRare("")
	want.HostRare("")
	for _, idx := range []map[string][]string{got.hostRare, want.hostRare} {
		for h := range idx {
			if g, w := got.HostRare(h), want.HostRare(h); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: HostRare(%q) = %v, want %v", label, h, g, w)
			}
		}
	}
	if g := got.HostRare("no-such-host"); g != nil {
		t.Fatalf("%s: HostRare of an unseen host = %v, want nil", label, g)
	}
}

// TestIncrementalMergeMatchesBatch is the profile-level half of the
// equivalence sweep: partitioning a day — by (host, domain) pair, domains
// overlapping across parts, or by domain — feeding each partition in a
// scrambled apply order, and assembling the snapshot must reproduce the
// sequential reference scan exactly: same rare set (first-seen IPs and
// 16-path caps included), same counts, same indexes, for any partition and
// worker count.
func TestIncrementalMergeMatchesBatch(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(17))

	hist := NewHistory()
	var known []string
	for i := 0; i < 40; i++ {
		known = append(known, fmt.Sprintf("known-%d.example", i))
	}
	hist.UpdateDomains(day.AddDate(0, 0, -30), known)

	visits := randomVisits(rng, day, 9000)
	want := referenceSnapshot(day, visits, hist, 10)

	for _, pt := range partitionings {
		for _, parts := range []int{1, 3, 8} {
			for _, workers := range []int{1, 4, 0} {
				for _, scrambled := range []bool{false, true} {
					var shuffle *rand.Rand
					if scrambled {
						shuffle = rand.New(rand.NewSource(int64(parts*100 + workers)))
					}
					label := fmt.Sprintf("%s parts=%d workers=%d scrambled=%v", pt.name, parts, workers, scrambled)
					bs := buildParts(visits, pt, parts, shuffle, nil)
					got := pt.snapshot(day, bs, hist, 10, workers)
					assertSnapshotsEqual(t, label, got, want)
					// The build must not consume the builders: a second one
					// over the same partials reproduces the snapshot.
					again := pt.snapshot(day, bs, hist, 10, workers)
					assertSnapshotsEqual(t, label+" (rebuilt)", again, want)
				}
			}
		}
	}
}

// TestClassifyFanOutIndependentOfParts: the direct entry's fan-out follows
// workers, not the part count — one part holding the whole day (a one-shard
// engine, or a day so skewed one shard has nearly all of it) is classified in
// as many ranges as there are workers, and the ranges' sorted runs merge into
// exactly the reference's indexes, including when workers does not divide the
// domain count and when it exceeds GOMAXPROCS.
func TestClassifyFanOutIndependentOfParts(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(29))
	hist := NewHistory()
	hist.UpdateDomains(day.AddDate(0, 0, -30), []string{"known-1.example", "known-2.example", "known-3.example"})
	visits := randomVisits(rng, day, 9000)
	want := referenceSnapshot(day, visits, hist, 10)
	for _, workers := range []int{1, 2, 7} {
		b := NewIncrementalBuilder()
		for i := range visits {
			b.Add(uint64(i), &visits[i])
		}
		got := ClassifyDisjoint(day, []*IncrementalBuilder{b}, hist, 10, workers)
		assertSnapshotsEqual(t, fmt.Sprintf("one part, workers=%d", workers), got, want)
	}
}

// TestAddKnownMatchesReference holds the history filter to the unfiltered
// oracle: folding every visit to a historical domain through AddKnown — or,
// for a domain that "turned historical mid-day", only the later-arriving
// part of its visits, so one aggregate carries both kinds of state — must
// build exactly the snapshot of the sequential reference scan, for any pair
// or domain partition and apply order (under the domain partition the mix
// sits in one part's aggregate, as a checkpoint written by a pair-sharded
// engine can leave it after a restore). It also pins what the marker keeps
// (visit totals, per-domain known counts, no host state) through every copy
// path a checkpoint and a restore take: Clone -> SaveTo -> LoadBuilderFrom ->
// Clone -> Split.
func TestAddKnownMatchesReference(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(23))

	hist := NewHistory()
	var historical []string
	for i := 0; i < 40; i++ {
		historical = append(historical, fmt.Sprintf("known-%d.example", i))
	}
	hist.UpdateDomains(day.AddDate(0, 0, -30), historical)

	visits := randomVisits(rng, day, 9000)
	want := referenceSnapshot(day, visits, hist, 10)

	// known-0..9 turn historical mid-day: their first visits (by arrival
	// index) were profiled before the commit landed, the rest marked.
	turning := func(d string) bool { return len(d) == len("known-0.example") }
	known := func(i int) bool {
		d := visits[i].Domain
		return hist.SeenDomain(d) && !(turning(d) && i < len(visits)/2)
	}
	wantKnown := map[string]int{}
	for i := range visits {
		if known(i) {
			wantKnown[visits[i].Domain]++
		}
	}
	if len(wantKnown) != 40 {
		t.Fatalf("fixture marks %d domains known, want 40", len(wantKnown))
	}
	checkCounts := func(label string, bs []*IncrementalBuilder) {
		t.Helper()
		total, got := 0, map[string]int{}
		for _, b := range bs {
			total += b.Visits()
			for d, a := range b.perDomain {
				if a.known > 0 {
					got[d] += a.known
				}
				if a.known != b.KnownVisits(d) {
					t.Fatalf("%s: KnownVisits(%s) = %d, aggregate holds %d", label, d, b.KnownVisits(d), a.known)
				}
				if hist.SeenDomain(d) && !turning(d) && (len(a.Hosts) != 0 || a.IP.IsValid() || len(a.paths) != 0) {
					t.Fatalf("%s: historical domain %s carries profile state: %+v", label, d, a)
				}
			}
		}
		if total != len(visits) {
			t.Fatalf("%s: Visits() sum to %d, want %d", label, total, len(visits))
		}
		if !reflect.DeepEqual(got, wantKnown) {
			t.Fatalf("%s: known counts differ:\ngot  %v\nwant %v", label, got, wantKnown)
		}
	}

	for _, pt := range partitionings {
		for _, parts := range []int{1, 3, 8} {
			for _, scrambled := range []bool{false, true} {
				var shuffle *rand.Rand
				if scrambled {
					shuffle = rand.New(rand.NewSource(int64(parts)))
				}
				label := fmt.Sprintf("%s parts=%d scrambled=%v", pt.name, parts, scrambled)
				bs := buildParts(visits, pt, parts, shuffle, known)
				checkCounts(label, bs)
				assertSnapshotsEqual(t, label, pt.snapshot(day, bs, hist, 10, 2), want)

				// The checkpoint path of the engine's domain-disjoint shards:
				// clone each part, write the clones as one domain-keyed
				// section, decode, clone, re-split.
				if pt.name != "domain/classify" {
					continue
				}
				clones := make([]*IncrementalBuilder, len(bs))
				for i, b := range bs {
					clones[i] = b.Clone()
				}
				checkCounts(label+" clones", clones)
				var buf bytes.Buffer
				if err := clones[0].SaveTo(json.NewEncoder(&buf), clones[1:]...); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadBuilderFrom(json.NewDecoder(&buf))
				if err != nil {
					t.Fatalf("%s: reload: %v", label, err)
				}
				checkCounts(label+" reloaded", []*IncrementalBuilder{loaded})
				for _, n := range []int{1, 4} {
					split := loaded.Clone().Split(n, func(d string) int { return domainOf(d, n) })
					checkCounts(fmt.Sprintf("%s split(%d)", label, n), split)
					assertSnapshotsEqual(t, fmt.Sprintf("%s split(%d)", label, n), ClassifyDisjoint(day, split, hist, 10, 1), want)
				}
			}
		}
	}
}

// TestIncrementalSeqDecidesOrderSensitiveState pins the two decisions the
// builder keys by arrival seq rather than apply order: the first-seen
// destination IP and the 16-path retention cap must both follow the
// smallest sequence numbers even when later-seq visits are applied first.
func TestIncrementalSeqDecidesOrderSensitiveState(t *testing.T) {
	day := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	mk := func(host string, ip string, url string) logs.Visit {
		v := logs.Visit{Time: day, Host: host, Domain: "rare.example", HasRef: true}
		if ip != "" {
			v.DestIP = netip.MustParseAddr(ip)
		}
		v.URL = url
		return v
	}
	// 20 distinct paths; seqs 0..19. Batch admits the first 16 (seq order).
	visits := make([]logs.Visit, 0, 21)
	for i := 0; i < 20; i++ {
		visits = append(visits, mk("h1", "", fmt.Sprintf("http://rare.example/p-%02d", i)))
	}
	// The IP carried by the smallest-seq visit that has one: seq 20 comes
	// last, so seq 3 should win once it carries an address.
	visits[3].DestIP = netip.MustParseAddr("192.0.2.7")
	visits = append(visits, mk("h2", "192.0.2.99", "http://rare.example/late"))

	hist := NewHistory()
	want := referenceSnapshot(day, visits, hist, 10)

	// Apply in reverse: every order-sensitive decision arrives "wrong way
	// round" relative to seq.
	b := NewIncrementalBuilder()
	for i := len(visits) - 1; i >= 0; i-- {
		b.Add(uint64(i), &visits[i])
	}
	got := MergeSnapshotParallel(day, []*IncrementalBuilder{b}, hist, 10, 1)
	assertSnapshotsEqual(t, "reverse apply", got, want)

	da := got.Rare["rare.example"]
	if da == nil {
		t.Fatal("rare.example not rare")
	}
	if want := netip.MustParseAddr("192.0.2.7"); da.IP != want {
		t.Fatalf("IP = %v, want the smallest-seq address %v", da.IP, want)
	}
	paths := da.Paths()
	if len(paths) != 16 {
		t.Fatalf("retained %d paths, want 16", len(paths))
	}
	if slices.Contains(paths, "/late") {
		t.Fatal("seq-20 path /late admitted over the 16 earlier paths")
	}
	if paths[0] != "/p-00" || paths[15] != "/p-15" {
		t.Fatalf("want the 16 smallest-seq paths /p-00../p-15 in order, got %v", paths)
	}
}

// TestIncrementalMergeProperty is a randomized sweep across many partition
// shapes and days — the fuzz-style lockdown that arbitrary splits and
// apply orders can never drift from the batch reference.
func TestIncrementalMergeProperty(t *testing.T) {
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hist := NewHistory()
		var known []string
		for i := 0; i < rng.Intn(40); i++ {
			known = append(known, fmt.Sprintf("known-%d.example", i))
		}
		if len(known) > 0 {
			hist.UpdateDomains(day.AddDate(0, 0, -10), known)
		}
		visits := randomVisits(rng, day, 200+rng.Intn(3000))
		want := NewSnapshot(day, visits, hist, 10)

		for _, pt := range partitionings {
			parts := 1 + rng.Intn(9)
			workers := 1 + rng.Intn(5)
			bs := buildParts(visits, pt, parts, rng, nil)
			got := pt.snapshot(day, bs, hist, 10, workers)
			assertSnapshotsEqual(t, fmt.Sprintf("seed=%d %s parts=%d workers=%d", seed, pt.name, parts, workers), got, want)
		}
	}
}

// TestAdmitPathOrderIndependent offers the same (path, seq) occurrences to
// the bounded path set in many orders — seq order, reverse, shuffled, and
// split into halves merged either way — and requires the brute-force answer
// every time: the 16 paths with the smallest first-occurrence seqs, each at
// that seq. It is the direct check on the cached upper bound that lets a
// full set turn late newcomers away without a scan.
func TestAdmitPathOrderIndependent(t *testing.T) {
	type offer struct {
		path string
		seq  uint64
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		offers := make([]offer, 30+rng.Intn(200))
		for i := range offers {
			offers[i] = offer{fmt.Sprintf("/p%d", rng.Intn(8+rng.Intn(40))), uint64(i)} // seqs unique, paths recur
		}
		first := map[string]uint64{}
		for _, o := range offers {
			if s, ok := first[o.path]; !ok || o.seq < s {
				first[o.path] = o.seq
			}
		}
		seqs := make([]uint64, 0, len(first))
		for _, s := range first {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		want := map[string]uint64{}
		for p, s := range first {
			if len(seqs) <= maxPathsPerDomain || s <= seqs[maxPathsPerDomain-1] {
				want[p] = s
			}
		}

		b := NewIncrementalBuilder()
		absorb := func(os []offer) *incrementalAgg {
			a := b.newAgg("d.com")
			for _, o := range os {
				b.admitPath(a, o.path, o.seq)
			}
			return a
		}
		reversed := make([]offer, len(offers))
		for i, o := range offers {
			reversed[len(offers)-1-i] = o
		}
		shuffled := append([]offer(nil), offers...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		cut := rng.Intn(len(shuffled))
		lo, hi := absorb(shuffled[:cut]), absorb(shuffled[cut:])
		b.mergeAgg(lo, hi)
		hi2, lo2 := absorb(shuffled[cut:]), absorb(shuffled[:cut])
		b.mergeAgg(hi2, lo2)
		for label, a := range map[string]*incrementalAgg{
			"seq order": absorb(offers), "reversed": absorb(reversed), "shuffled": absorb(shuffled),
			"halves merged": lo, "halves merged the other way": hi2,
		} {
			if got := builderPaths(a.paths); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: retained %v, want %v", seed, label, got, want)
			}
		}
	}
}

// TestFreshDomainsAllocatePerBlock pins the slab contract: a builder's first
// sight of n fresh domains — one host, one user agent, one URL path each —
// allocates once per block of each slab, arena and text block it carves from,
// and per domain only the clone of its name, the key that outlives the day.
// The path length is chosen so every text block fills exactly; the domain map
// is sized and the day's one (host, UA) pair written beforehand, so the
// reading is the fold's own state alone.
func TestFreshDomainsAllocatePerBlock(t *testing.T) {
	const (
		n         = 4 * arenaBlock
		textBlock = 32 << 10 // logs.TextBlock's block size
		pathLen   = 32       // a domain's path fills 32 bytes of text
	)
	path := "/" + strings.Repeat("x", pathLen-1)
	visits := make([]logs.Visit, n)
	for i := range visits {
		d := fmt.Sprintf("%012d.com", i)
		visits[i] = logs.Visit{Time: day(2).Add(time.Duration(i) * time.Second), Host: "h1", Domain: d,
			DestIP: netip.MustParseAddr("192.0.2.1"), URL: "http://" + d + path, UserAgent: "ua", HasUA: true}
	}
	b := NewIncrementalBuilder()
	b.perDomain = make(map[string]*incrementalAgg, n)
	b.uaPairs[[2]string{"h1", "ua"}] = true

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range visits {
		b.Add(uint64(i), &visits[i])
	}
	runtime.ReadMemStats(&after)

	// blocks counts the blocks n carves of size elements fill, block sizes
	// growing from firstBlock to arenaBlock.
	blocks := func(size int) uint64 {
		count, room, last := uint64(0), 0, 0
		for range n {
			if room < size {
				last = nextBlock(last)
				room = last
				count++
			}
			room -= size
		}
		return count
	}
	want := blocks(1) + // aggregates
		blocks(1) + // host activities
		blocks(timesCarve) + blocks(uasCarve) + // a new host's Times and UA set
		blocks(hostsCarve) + blocks(pathsCarve) + // a new domain's host list and paths
		uint64(n*pathLen/textBlock) + // paths
		n // names
	if got := after.Mallocs - before.Mallocs; got != want {
		t.Errorf("folding %d fresh domains allocates %d times, want %d (one per block and one per name)", n, got, want)
	}
	if b.Domains() != n || b.Visits() != n {
		t.Fatalf("builder holds %d domains, %d visits; want %d each", b.Domains(), b.Visits(), n)
	}
}
