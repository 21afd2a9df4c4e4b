package profile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/logs"
)

// codecVisits fabricates a deterministic visit stream with enough shape to
// exercise every codec field: multiple hosts per domain, shared (host,
// domain) pairs across partitions, URL paths beyond the retention cap,
// UA-less and referer-less visits, and destination IPs.
func codecVisits(n int) []logs.Visit {
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	visits := make([]logs.Visit, n)
	for i := range visits {
		v := logs.Visit{
			Time:   day.Add(time.Duration(i) * 13 * time.Second),
			Host:   fmt.Sprintf("host-%d", rng.Intn(9)),
			Domain: fmt.Sprintf("dom-%d.test", rng.Intn(13)),
			URL:    fmt.Sprintf("http://x.test/p%d?", rng.Intn(40)),
			HasRef: rng.Intn(3) > 0,
		}
		if rng.Intn(4) > 0 {
			v.HasUA = true
			v.UserAgent = fmt.Sprintf("agent/%d", rng.Intn(5))
		}
		if rng.Intn(2) == 0 {
			v.DestIP = netip.AddrFrom4([4]byte{93, 184, byte(rng.Intn(200)), byte(rng.Intn(200))})
		}
		visits[i] = v
	}
	return visits
}

func buildFromVisits(visits []logs.Visit) *IncrementalBuilder {
	b := NewIncrementalBuilder()
	for i := range visits {
		b.Add(uint64(i+1), &visits[i])
	}
	return b
}

// mergedSnapshot reduces a builder to the comparable day view.
func mergedSnapshot(b *IncrementalBuilder, hist *History) *Snapshot {
	return MergeSnapshotParallel(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC),
		[]*IncrementalBuilder{b}, hist, 10, 1)
}

func snapshotFingerprint(t *testing.T, s *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "day=%s new=%d all=%d\n", s.Day.Format("2006-01-02"), s.NewDomains, s.AllDomains)
	for _, da := range s.RareActivities() {
		fmt.Fprintf(&sb, "rare %s ip=%v paths=%d\n", da.Domain, da.IP, len(da.Paths()))
		for _, ha := range da.Hosts {
			fmt.Fprintf(&sb, "  host %s visits=%d noref=%v uas=%d first=%s\n",
				ha.Host, len(ha.Times), ha.UsesNoReferer(), len(ha.UAs), ha.First().Format(time.RFC3339))
		}
	}
	return sb.String()
}

// TestBuilderCodecRoundTrip: SaveTo → LoadBuilderFrom must reproduce a
// builder whose merged snapshot is indistinguishable from the original's,
// and whose own accounting (visits, domains, max seq) matches.
func TestBuilderCodecRoundTrip(t *testing.T) {
	b := buildFromVisits(codecVisits(900))
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := json.NewEncoder(bw)
	if err := b.SaveTo(enc); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBuilderFrom(json.NewDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes()))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Visits() != b.Visits() || got.Domains() != b.Domains() || got.MaxSeq() != b.MaxSeq() {
		t.Fatalf("round-trip accounting: visits %d/%d domains %d/%d maxSeq %d/%d",
			got.Visits(), b.Visits(), got.Domains(), b.Domains(), got.MaxSeq(), b.MaxSeq())
	}
	hist := NewHistory()
	want := snapshotFingerprint(t, mergedSnapshot(b.Clone(), hist))
	if fp := snapshotFingerprint(t, mergedSnapshot(got, hist)); fp != want {
		t.Fatalf("round-tripped builder merges differently\nwant:\n%s\ngot:\n%s", want, fp)
	}
}

// TestBuilderCloneIsDeep: mutating the original after Clone must not leak
// into the clone — the property the checkpoint encode depends on while the
// ingest path keeps absorbing visits.
func TestBuilderCloneIsDeep(t *testing.T) {
	visits := codecVisits(400)
	b := buildFromVisits(visits[:200])
	clone := b.Clone()
	before := snapshotFingerprint(t, mergedSnapshot(clone.Clone(), NewHistory()))
	for i := 200; i < 400; i++ {
		b.Add(uint64(i+1), &visits[i])
	}
	if after := snapshotFingerprint(t, mergedSnapshot(clone, NewHistory())); after != before {
		t.Fatalf("clone changed when the original kept absorbing\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestBuilderMergeSplitEquivalence: the checkpoint writer (clones of
// domain-disjoint parts written as one section) and the restore (decode,
// hash-split) must preserve the day exactly, for any partition count on
// either side.
func TestBuilderMergeSplitEquivalence(t *testing.T) {
	visits := codecVisits(1200)
	hist := NewHistory()
	hist.UpdateDomains(time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), []string{"dom-1.test", "dom-7.test"})
	want := snapshotFingerprint(t, mergedSnapshot(buildFromVisits(visits), hist))

	for _, shards := range []int{1, 3, 8} {
		parts := cutParts(visits, shards, byDomain)
		for i, p := range parts {
			parts[i] = p.Clone()
		}
		var buf bytes.Buffer
		if err := parts[0].SaveTo(json.NewEncoder(&buf), parts[1:]...); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadBuilderFrom(json.NewDecoder(&buf))
		if err != nil {
			t.Fatalf("shards=%d: reload: %v", shards, err)
		}
		for _, splitN := range []int{1, 2, 5} {
			split := loaded.Clone().Split(splitN, func(d string) int { return domainOf(d, splitN) })
			got := snapshotFingerprint(t, ClassifyDisjoint(
				time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), split, hist, 10, 1))
			if got != want {
				t.Fatalf("shards=%d split=%d: merged day differs\nwant:\n%s\ngot:\n%s", shards, splitN, got, want)
			}
		}
	}
}

// checkLinks fails unless b's entry list holds exactly perDomain's values,
// once each, and ends at b.last.
func checkLinks(t *testing.T, label string, b *IncrementalBuilder) {
	t.Helper()
	seen := make(map[*incrementalAgg]bool, len(b.perDomain))
	var last *incrementalAgg
	for a := b.first; a != nil; a = a.next {
		if seen[a] {
			t.Fatalf("%s: %q linked twice", label, a.Domain)
		}
		seen[a] = true
		if b.perDomain[a.Domain] != a {
			t.Fatalf("%s: the aggregate linked for %q is not perDomain's", label, a.Domain)
		}
		last = a
	}
	if len(seen) != len(b.perDomain) {
		t.Fatalf("%s: %d aggregates linked, %d in perDomain", label, len(seen), len(b.perDomain))
	}
	if b.last != last {
		t.Fatalf("%s: last is not the list's tail", label)
	}
}

// TestBuilderLinksHoldEveryDomain: after every way a builder gains domains —
// Run, Clone, Split and LoadBuilderFrom — the entry list is exactly
// perDomain's values, and a clone and the parts of a split keep the source's
// domain order, whatever the map's.
func TestBuilderLinksHoldEveryDomain(t *testing.T) {
	visits := codecVisits(900)
	b := buildFromVisits(visits)
	order := b.DomainNames()
	checkLinks(t, "Run", b)
	clone := b.Clone()
	checkLinks(t, "Clone", clone)
	if !slices.Equal(clone.DomainNames(), order) {
		t.Fatalf("Clone reordered the domains: %v, want %v", clone.DomainNames(), order)
	}

	for i, p := range b.Clone().Split(4, func(d string) int { return domainOf(d, 4) }) {
		checkLinks(t, fmt.Sprintf("Split part %d", i), p)
		var want []string
		for _, d := range order {
			if domainOf(d, 4) == i {
				want = append(want, d)
			}
		}
		if !slices.Equal(p.DomainNames(), want) {
			t.Fatalf("Split part %d reordered the domains: %v, want %v", i, p.DomainNames(), want)
		}
	}

	var buf bytes.Buffer
	if err := b.SaveTo(json.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBuilderFrom(json.NewDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkLinks(t, "LoadBuilderFrom", loaded)
}

// TestBuilderCodecRefusals: hostile builder sections must come back as
// errors, never panics or quietly inconsistent builders.
func TestBuilderCodecRefusals(t *testing.T) {
	host := `{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":[""]}`
	cases := map[string]string{
		"badVersion":     `{"version":9,"visits":0,"domains":0,"uaPairs":0}`,
		"negativeCounts": `{"version":1,"visits":-1,"domains":-2,"uaPairs":-3}`,
		"duplicateDomain": `{"version":1,"visits":2,"domains":2,"uaPairs":0}
{"d":"a.test","hosts":[` + host + `]}
{"d":"a.test","hosts":[` + host + `]}`,
		"duplicateHost": `{"version":1,"visits":2,"domains":1,"uaPairs":0}
{"d":"a.test","hosts":[` + host + `,` + host + `]}`,
		"unsortedHosts": `{"version":1,"visits":2,"domains":1,"uaPairs":0}
{"d":"a.test","hosts":[{"h":"h2","t":["2014-02-03T00:00:00Z"],"uas":[""]},` + host + `]}`,
		"emptyHost": `{"version":1,"visits":0,"domains":1,"uaPairs":0}
{"d":"a.test","hosts":[{"h":"h1","t":[],"uas":[""]}]}`,
		"visitMismatch": `{"version":1,"visits":5,"domains":1,"uaPairs":0}
{"d":"a.test","hosts":[` + host + `]}`,
		"badIP": `{"version":1,"visits":1,"domains":1,"uaPairs":0}
{"d":"a.test","ip":"999.1.1.1","hosts":[` + host + `]}`,
		"noRefOutOfRange": `{"version":1,"visits":1,"domains":1,"uaPairs":0}
{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"noRef":4,"uas":[""]}]}`,
		"tooManyPaths": `{"version":1,"visits":1,"domains":1,"uaPairs":0}
{"d":"a.test","paths":{"/1":1,"/2":1,"/3":1,"/4":1,"/5":1,"/6":1,"/7":1,"/8":1,"/9":1,"/10":1,"/11":1,"/12":1,"/13":1,"/14":1,"/15":1,"/16":1,"/17":1},"hosts":[` + host + `]}`,
		"truncated": `{"version":1,"visits":2,"domains":2,"uaPairs":0}
{"d":"a.test","hosts":[` + host + `]}`,
		"unsortedUAs": `{"version":1,"visits":1,"domains":1,"uaPairs":2}
{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["b","a"]}]}
{"h":"h1","ua":"a"}
{"h":"h1","ua":"b"}`,
		"duplicateUA": `{"version":1,"visits":1,"domains":1,"uaPairs":1}
{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["a","a"]}]}
{"h":"h1","ua":"a"}`,
		"uaWithoutPair": `{"version":1,"visits":1,"domains":1,"uaPairs":1}
{"d":"a.test","hosts":[{"h":"h1","t":["2014-02-03T00:00:00Z"],"uas":["","a","b"]}]}
{"h":"h1","ua":"a"}`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadBuilderFrom(json.NewDecoder(strings.NewReader(input + "\n"))); err == nil {
				t.Fatal("LoadBuilderFrom accepted a corrupt section")
			}
		})
	}
}
