package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/whois"
)

// TestApplySteadyStateAllocs is the alloc-regression gate for the apply
// path: on a warm day — builder aggregates and host activities created, the
// pooled item buffers grown — pushing a full working set through
// IngestBatch→applyBatch must average at most one allocation per record
// (the acceptance floor; in practice it is ~0, with the residue coming
// from the amortized growth of per-pair Times slices as the day gets
// longer). The quiesce inside the measured function makes the shard
// worker's allocations part of the reading, not a concurrent leak.
func TestApplySteadyStateAllocs(t *testing.T) {
	const n, batch = 4096, 512
	recs := benchRecords(n)
	e := trainOnlyEngine(Config{Shards: 1, QueueDepth: 8192})
	defer abandonEngine(e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	round := func() {
		for i := 0; i < n; i += batch {
			if err := e.IngestBatch(recs[i : i+batch]); err != nil {
				t.Fatal(err)
			}
		}
		// Drain the shard queue so every apply lands inside this round.
		e.quiesce(func(int, *shard) {})
	}
	round() // warm: builder aggregates, host activities, pooled buffers
	round()
	perRecord := testing.AllocsPerRun(10, round) / n
	if perRecord > 1.0 {
		t.Errorf("warm apply path allocates %.3f allocs/record, want <= 1", perRecord)
	}
	t.Logf("warm apply path: %.4f allocs/record", perRecord)

	// The shard fold alone, on a bare shard with a test-owned buffer (no
	// queue hop, no pool), so a zero is exact even under the race detector.
	items := buildItems(t, recs[:batch])
	buf := new([]item)
	foldOn := func(s *shard) func() {
		return func() {
			*buf = append((*buf)[:0], items...)
			s.applyBatch(buf)
		}
	}

	// Repeat visits to a domain the history does not hold: once the pairs
	// exist, the only allocation the fresh path may make is Times growth. Warm
	// until every pair has room for the measured folds, and the reading must be
	// exactly zero — no per-visit state beside the builder's.
	fs := newShard(e, 0)
	fold := foldOn(fs)
	const measured = 11 // AllocsPerRun(10, ·) runs its function 11 times
	room := func() bool {
		ok := true
		fs.part.EachProfiled(func(_ string, hosts []*profile.HostActivity) {
			for _, ha := range hosts {
				ok = ok && cap(ha.Times)-len(ha.Times) >= measured*batch/len(hosts)
			}
		})
		return ok
	}
	fold() // create the pairs
	for i := 0; !room(); i++ {
		if i == 100 {
			t.Fatal("Times never grew room for the measured folds")
		}
		fold()
	}
	if allocs := testing.AllocsPerRun(measured-1, fold); allocs != 0 {
		t.Errorf("warm fresh-domain batch allocates %.0f times beyond Times growth, want 0", allocs)
	}

	// The same batch once its domain is historical: every run folds as
	// known-domain markers, which must allocate nothing at all when warm and
	// leave the builder holding the domain as a marker and a count — no host
	// activity.
	ke := trainOnlyEngine(Config{Shards: 1})
	defer abandonEngine(ke)
	ke.hist.UpdateDomains(testDay().AddDate(0, 0, -1), []string{"example.net"})
	s := newShard(ke, 0)
	fold = foldOn(s)
	fold() // warm: marker aggregate, (host, UA) pairs, cache entry
	if allocs := testing.AllocsPerRun(10, fold); allocs != 0 {
		t.Errorf("warm known-domain batch allocates %.0f times, want 0", allocs)
	}
	var section bytes.Buffer
	if err := s.part.SaveTo(json.NewEncoder(&section)); err != nil {
		t.Fatal(err)
	}
	hosts, known := builderRecOf(t, section.Bytes(), "example.net")
	if hosts != 0 || known != 12*batch || s.knownVisits != known || s.part.Visits() != known {
		t.Errorf("builder holds %d host activities and %d known visits (shard counter %d, Visits %d), want 0 and %d",
			hosts, known, s.knownVisits, s.part.Visits(), 12*batch)
	}

	// A shard-day's first sight of domains the history lacks: the builder's
	// state for them plus exactly one copy of each name — the builder's key —
	// and nothing beside it (no history-cache entry, no second copy). Three
	// readings show it on each of two consecutive shard-days: the shard
	// allocates exactly as often as a bare builder folding the same visits;
	// the shard-day's text block grows by the one path each domain admits and
	// by no name; and lengthening every name from 48 to 64 bytes (both exact
	// size classes) grows the bytes the fold allocates by 16 per domain. Heap
	// totals are exact only without the race detector, whose runtime
	// allocates beside the fold.
	if raceEnabled {
		return
	}
	const fresh = 256
	// One P and no collection for the readings: a cycle empties the buffer
	// pool, whose next Put then allocates its per-P storage again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e.putBuf(new([]item))
	measure := func(fn func()) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	// fill reads how many bytes the builder's current text block holds.
	fill := func(b *profile.IncrementalBuilder) int {
		text := reflect.ValueOf(b).Elem().FieldByName("text")
		return (*logs.TextBlock)(unsafe.Pointer(text.UnsafeAddr())).Len()
	}
	const path = "/index.html" // benchRecords' one URL path
	var dayBytes [2][2]uint64  // [name length][shard-day]
	for n, nameLen := range []int{48, 64} {
		recs := benchRecords(fresh)
		for i := range recs {
			recs[i].Domain = fmt.Sprintf("%0*d.example", nameLen-len(".example"), i)
			if got := recs[i].URL; !strings.HasSuffix(got, path) {
				t.Fatalf("benchRecords URL %q does not end in %s", got, path)
			}
		}
		items := buildItems(t, recs)
		fs := newShard(e, 0)
		for day := range dayBytes[n] {
			buf := new([]item)
			*buf = append(make([]item, 0, len(items)), items...)
			filled := fill(fs.part)
			mallocs, bytes := measure(func() { fs.applyBatch(buf) })
			if grew, want := fill(fs.part)-filled, fresh*len(path); grew != want {
				t.Errorf("%d-byte names, shard-day %d: the text block's fill grows by %d bytes, want %d (each of %d paths copied once, no name)",
					nameLen, day, grew, want, fresh)
			}
			ref := profile.NewIncrementalBuilder()
			refMallocs, _ := measure(func() {
				for i := range items {
					cur := ref.Run(items[i].visit.Domain)
					cur.Add(items[i].seq, &items[i].visit)
				}
			})
			if mallocs != refMallocs {
				t.Errorf("%d-byte names, shard-day %d: the shard's first sight of %d fresh domains allocates %d times, a bare builder %d",
					nameLen, day, fresh, mallocs, refMallocs)
			}
			if fs.part.Domains() != fresh || len(fs.markers) != 0 {
				t.Fatalf("shard holds %d builder domains and %d markers, want %d and 0", fs.part.Domains(), len(fs.markers), fresh)
			}
			dayBytes[n][day] = bytes
			fs.resetDay()
		}
	}
	for day := range dayBytes[0] {
		if grew := dayBytes[1][day] - dayBytes[0][day]; grew != 16*fresh {
			t.Errorf("shard-day %d: 16 more bytes per name grow the fresh-domain fold by %d bytes, want %d (one copy of each of %d names)",
				day, grew, 16*fresh, fresh)
		}
	}
}

// TestKeptDomainOwnsItsBytes: a decoded domain or URL is carved from its
// decoder's text block, and the engine keeps domain names and URL paths for
// the rest of the day (the builder's keys and admitted paths, the lease-less
// markers) or for good (the shard's cache of known domains, the history, the
// pipeline's calibration examples), so every one it keeps must be a copy — a
// kept folded suffix would otherwise pin a whole 32 KiB block. A name kept for
// good — the builder key the history and the examples adopt — must not point
// into a day builder's block either. Records go through a real decoder into
// an engine, a close commits the first day, the second day leaves every kind
// of kept string behind, and its calibrating close keeps examples.
func TestKeptDomainOwnsItsBytes(t *testing.T) {
	day := func(d time.Time, tag string) []logs.ProxyRecord {
		var recs []logs.ProxyRecord
		for i := 0; i < 120; i++ {
			r := rec(d, fmt.Sprintf("h%d", i%7), fmt.Sprintf("www.%s-%d.example", tag, i%20), time.Duration(i)*time.Second)
			r.URL = fmt.Sprintf("http://www.%s-%d.example/p/%d", tag, i%20, i)
			if i%4 == 0 { // no Host, no lease: a lease-less marker
				r.Host, r.SrcIP = "", netip.MustParseAddr("10.9.9.9")
				r.Domain = fmt.Sprintf("www.bare-%s-%d.example", tag, i%5)
			}
			recs = append(recs, r)
		}
		return recs
	}
	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	dec := logs.NewProxyDecoder()
	decode := func(recs []logs.ProxyRecord) []logs.ProxyRecord {
		var tsv []byte
		for _, r := range recs {
			tsv = logs.AppendProxy(tsv, r)
		}
		got, err := logs.ReadProxyBatch(bytes.NewReader(tsv), dec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Day 2 revisits day 1's domains (known by then: history-cache entries)
	// and brings fresh ones and lease-less ones of its own, and a beacon its
	// calibrating close labels, so the pipeline keeps training examples.
	recs1 := decode(day(d1, "a"))
	day2 := append(day(d2, "a"), day(d2, "b")...)
	for i := 0; i < 30; i++ {
		r := rec(d2, "h1", "www.beacon.example", time.Duration(i)*10*time.Minute)
		r.URL = "http://www.beacon.example/c2"
		day2 = append(day2, r)
	}
	recs2 := decode(day2)

	reported := func(d string, _ time.Time) bool { return d == "www.beacon.example" }
	e := New(Config{Shards: 2, TrainingDays: 1},
		pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), reported, nil))
	defer e.Close()
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(recs1); err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi uintptr }
	spanOf := func(v string) span {
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		return span{p, p + uintptr(len(v))}
	}
	// The day builders' text blocks: a fixture day's paths fit in a builder's
	// first block, so its current one holds them all.
	var builderText []span
	var mu sync.Mutex
	collectBuilders := func(kept map[string][]string) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.quiesce(func(_ int, s *shard) {
			buf := reflect.ValueOf(s.part).Elem().FieldByName("text").Field(0).FieldByName("buf")
			text := *(*[]byte)(unsafe.Pointer(buf.UnsafeAddr()))
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(text)))
			block := span{lo, lo + uintptr(cap(text))}
			keys := s.part.DomainNames()
			snap := profile.ClassifyDisjoint(d2, []*profile.IncrementalBuilder{s.part.Clone()}, profile.NewHistory(), 1<<30, 1)
			var paths []string
			for _, da := range snap.Rare {
				paths = append(paths, da.Paths()...)
			}
			mu.Lock()
			defer mu.Unlock()
			kept["builder key"] = append(kept["builder key"], keys...)
			kept["admitted path"] = append(kept["admitted path"], paths...)
			for _, p := range paths {
				if v := spanOf(p); v.lo < block.lo || v.hi > block.hi {
					t.Errorf("admitted path %q lies outside its builder's current text block", p)
				}
			}
			builderText = append(builderText, block)
		})
	}
	collectBuilders(map[string][]string{})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.BeginDay(d2, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(recs2); err != nil {
		t.Fatal(err)
	}

	kept := map[string][]string{}
	collectBuilders(kept)
	e.mu.Lock()
	e.quiesce(func(_ int, s *shard) {
		mu.Lock()
		defer mu.Unlock()
		for d := range s.markers {
			kept["marker"] = append(kept["marker"], d)
		}
		for d := range s.hist.pos {
			kept["history-cache key"] = append(kept["history-cache key"], d)
		}
	})
	e.mu.Unlock()
	// The history is profile's; its committed names are read in place.
	for _, k := range reflect.ValueOf(e.hist).Elem().FieldByName("domains").MapKeys() {
		kept["committed history domain"] = append(kept["committed history domain"], k.String())
	}
	// Day 2's close calibrates: the pipeline keeps its examples for good.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ex := range e.pipe.CCExamples() {
		kept["calibration example"] = append(kept["calibration example"], ex.Domain)
	}
	for _, ex := range e.pipe.SimilarityExamples() {
		kept["calibration example"] = append(kept["calibration example"], ex.Domain)
	}

	var carved []span
	for _, recs := range [][]logs.ProxyRecord{recs1, recs2} {
		for _, r := range recs {
			for _, v := range []string{r.Domain, r.URL, r.Referer} {
				if v != "" {
					carved = append(carved, spanOf(v))
				}
			}
		}
	}
	inside := func(v string, spans []span) bool {
		p := spanOf(v).lo
		for _, c := range spans {
			if p >= c.lo && p < c.hi {
				return true
			}
		}
		return false
	}
	for _, kind := range []string{"builder key", "admitted path", "marker", "history-cache key", "committed history domain", "calibration example"} {
		if len(kept[kind]) == 0 {
			t.Fatalf("the engine keeps no %s: the fixture does not exercise it", kind)
		}
		for _, d := range kept[kind] {
			if inside(d, carved) {
				t.Errorf("%s %q points into a decoded record's text", kind, d)
			}
		}
	}
	for _, kind := range []string{"builder key", "committed history domain", "calibration example"} {
		for _, d := range kept[kind] {
			if inside(d, builderText) {
				t.Errorf("%s %q points into a day builder's text block", kind, d)
			}
		}
	}
	runtime.KeepAlive(recs1)
	runtime.KeepAlive(recs2)
}
