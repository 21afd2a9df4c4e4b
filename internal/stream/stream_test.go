package stream

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/histogram"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/whois"
)

func testDay() time.Time { return time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC) }

// trainOnlyEngine returns an engine whose every day feeds the Train path,
// so tests can exercise ingestion mechanics without an intel oracle.
func trainOnlyEngine(cfg Config) *Engine {
	cfg.TrainingDays = 1 << 30
	pipe := pipeline.NewEnterprise(pipeline.EnterpriseConfig{}, whois.NewRegistry(), nil, nil)
	return New(cfg, pipe)
}

func rec(day time.Time, host, domain string, offset time.Duration) logs.ProxyRecord {
	return logs.ProxyRecord{
		Time:   day.Add(offset),
		Host:   host,
		SrcIP:  netip.MustParseAddr("10.1.2.3"),
		Domain: domain,
		Method: "GET",
		Status: 200,
	}
}

// ingest1 feeds one record as a batch of one — the per-record shape of a
// feed that does not batch.
func ingest1(e *Engine, r logs.ProxyRecord) error {
	return e.IngestBatch([]logs.ProxyRecord{r})
}

// TestIngestRequiresOpenDay pins IngestBatch's one contract: an empty batch
// is a no-op, a record with no open day is refused, and a batch lands whole
// in the open day whatever its timestamps.
func TestIngestRequiresOpenDay(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	countsNothing := func(when string) {
		t.Helper()
		if st := e.Stats(); st.DayRecords != 0 || st.TotalRecords != 0 {
			t.Fatalf("%s: dayRecords %d, totalRecords %d, want 0", when, st.DayRecords, st.TotalRecords)
		}
	}
	if err := e.IngestBatch(nil); err != nil {
		t.Fatalf("empty batch with no open day: %v, want nil", err)
	}
	countsNothing("empty batch with no open day")
	if err := ingest1(e, rec(testDay(), "h1", "example.com", 0)); !errors.Is(err, ErrNoDay) {
		t.Fatalf("got %v, want ErrNoDay", err)
	}
	countsNothing("refused record")

	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch([]logs.ProxyRecord{}); err != nil {
		t.Fatalf("empty batch into an open day: %v, want nil", err)
	}
	countsNothing("empty batch into an open day")

	// One batch across both midnights of the open day: every record files
	// into it.
	recs := []logs.ProxyRecord{
		rec(testDay(), "h1", "example.com", -time.Minute),
		rec(testDay(), "h1", "example.com", time.Hour),
		rec(testDay(), "h2", "example.com", 24*time.Hour+time.Minute),
	}
	if err := e.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().DayRecords; got != uint64(len(recs)) {
		t.Fatalf("dayRecords = %d, want %d", got, len(recs))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.Dates(); len(got) != 1 || got[0] != "2014-02-03" {
		t.Fatalf("dates = %v, want only the open day", got)
	}
	rep, ok := e.DayReport("2014-02-03")
	if !ok {
		t.Fatal("no report for the open day")
	}
	if rep.Stats.Records != len(recs) {
		t.Fatalf("report counts %d records, want %d", rep.Stats.Records, len(recs))
	}
}

func TestDayRolloverAndReports(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	d1, d2 := testDay(), testDay().AddDate(0, 0, 1)
	if err := e.BeginDay(d1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		host := fmt.Sprintf("h%d", i)
		if err := ingest1(e, rec(d1, host, "alpha.test", time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// BeginDay for the next day completes the first.
	if err := e.BeginDay(d2, nil); err != nil {
		t.Fatal(err)
	}
	rep, ok := e.DayReport("2014-02-03")
	if !ok {
		t.Fatal("no report for completed day")
	}
	if rep.Stats.Records != 5 || rep.Stats.Kept != 5 {
		t.Fatalf("stats = %+v, want 5 records kept", rep.Stats)
	}
	if rep.Stats.DomainsAll != 1 {
		t.Fatalf("DomainsAll = %d, want 1", rep.Stats.DomainsAll)
	}
	if got := e.DaysDone(); got != 1 {
		t.Fatalf("DaysDone = %d, want 1", got)
	}
	// No records for d2: flushing produces no report, matching batch mode
	// where an empty day has no file.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.DaysDone(); got != 1 {
		t.Fatalf("DaysDone after empty flush = %d, want 1", got)
	}
}

func TestLeaseResolutionAndMarkers(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	leases := map[netip.Addr]string{netip.MustParseAddr("10.0.0.7"): "lease-host"}
	if err := e.BeginDay(testDay(), leases); err != nil {
		t.Fatal(err)
	}
	known := logs.ProxyRecord{Time: testDay(), SrcIP: netip.MustParseAddr("10.0.0.7"),
		Domain: "gamma.test", Method: "GET", Status: 200}
	unknown := logs.ProxyRecord{Time: testDay(), SrcIP: netip.MustParseAddr("10.9.9.9"),
		Domain: "delta.test", Method: "GET", Status: 200}
	ipLit := logs.ProxyRecord{Time: testDay(), SrcIP: netip.MustParseAddr("10.0.0.7"),
		Domain: "93.184.216.34", Method: "GET", Status: 200}
	for _, r := range []logs.ProxyRecord{known, unknown, ipLit} {
		if err := ingest1(e, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := e.DayReport("2014-02-03")
	if !ok {
		t.Fatal("no report")
	}
	want := rep.Stats
	if want.Records != 3 || want.Kept != 1 || want.DroppedUnresolved != 1 || want.DroppedIPLiteral != 1 {
		t.Fatalf("stats = %+v", want)
	}
	// The unresolved record's domain still counts toward the distinct-
	// domain statistic, as in batch reduction.
	if want.DomainsAll != 2 {
		t.Fatalf("DomainsAll = %d, want 2 (gamma + delta)", want.DomainsAll)
	}
}

func TestBackpressure(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 1, QueueDepth: 4})
	defer e.Close()
	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	// Park the only worker inside a control request so the queue backs up.
	started, release := make(chan struct{}), make(chan struct{})
	go e.shards[0].do(func(*shard) { close(started); <-release })
	<-started

	if e.Lagging() {
		t.Fatal("Lagging() = true on an empty queue")
	}
	// Four batches fill the depth-4 queue without blocking; a fifth would
	// wait for the parked worker.
	for i := 0; i < 4; i++ {
		if err := ingest1(e, rec(testDay(), "h1", "epsilon.test", time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Lagging() {
		t.Fatal("Lagging() = false with a full queue")
	}
	close(release)

	// Blocking ingestion rides out the lag and the day still completes.
	if err := ingest1(e, rec(testDay(), "h1", "epsilon.test", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Lagging() {
		t.Fatal("Lagging() = true after the queue drained")
	}
}

// TestShedThreshold: Lagging's trigger must sit at ceil(0.9 · QueueDepth)
// queued batches — the exact semantics of the original hard-coded
// len*10 >= depth*9 check — which is at least one batch at any depth.
func TestShedThreshold(t *testing.T) {
	cases := []struct {
		depth int
		want  int
	}{
		{0, 3687},    // unset -> the 4096 default
		{4096, 3687}, // the old len*10 >= depth*9 point
		{10, 9},
		{7, 7}, // ceil, not floor: 6.3 -> 7
		{8, 8}, // 7.2 -> 8: shed only on a full queue
		{1, 1}, // any non-empty queue sheds
	}
	for _, c := range cases {
		e := trainOnlyEngine(Config{Shards: 1, QueueDepth: c.depth})
		if e.shedAt != c.want {
			t.Errorf("QueueDepth=%d: shedAt = %d, want %d", c.depth, e.shedAt, c.want)
		}
		e.Close()
	}

	// Behavioral check: at depth 1 a single queued batch flips Lagging.
	e := trainOnlyEngine(Config{Shards: 1, QueueDepth: 1})
	defer e.Close()
	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	if e.Lagging() {
		t.Fatal("Lagging() = true on an empty queue")
	}
	started, release := make(chan struct{}), make(chan struct{})
	go e.shards[0].do(func(*shard) { close(started); <-release })
	<-started
	if err := ingest1(e, rec(testDay(), "h1", "epsilon.test", 0)); err != nil {
		t.Fatal(err)
	}
	if !e.Lagging() {
		t.Fatal("Lagging() = false with one queued batch at QueueDepth=1")
	}
	close(release)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveAutomated(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 2})
	defer e.Close()
	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	// A clean 10-minute beacon from one host, plus scattered noise from
	// another pair.
	for i := 0; i < 30; i++ {
		if err := ingest1(e, rec(testDay(), "victim", "evil.test", time.Duration(i)*10*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	noise := []time.Duration{0, 7 * time.Minute, 11 * time.Minute, 55 * time.Minute, 180 * time.Minute}
	for _, off := range noise {
		if err := ingest1(e, rec(testDay(), "browser", "news.test", off)); err != nil {
			t.Fatal(err)
		}
	}
	pairs := e.LiveAutomated(10)
	if len(pairs) == 0 {
		t.Fatal("no live automated pairs for a clean beacon")
	}
	top := pairs[0]
	if top.Host != "victim" || top.Domain != "evil.test" {
		t.Fatalf("top pair = %+v, want victim/evil.test", top)
	}
	if top.Period < 590 || top.Period > 610 {
		t.Fatalf("period = %v, want ~600s", top.Period)
	}
	if all := e.LiveAutomated(-1); len(all) != len(pairs) {
		t.Fatalf("LiveAutomated(-1) = %d pairs, want all %d (<= 0 means uncapped)", len(all), len(pairs))
	}
	st := e.Stats()
	var auto int
	for _, ss := range st.Shards {
		auto += ss.AutomatedPairs
	}
	if auto == 0 {
		t.Fatal("Stats reports no automated pairs")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveAutomated(10); len(got) != 0 {
		t.Fatalf("live pairs survived rollover: %v", got)
	}
}

// TestLiveViewIsCloseVerdict: the view is the verdict. For a day of clean,
// jittered and out-of-order-arriving beacons plus browsing noise, the pairs
// LiveAutomated lists just before the day closes are exactly the (host,
// domain) pairs the detector marks on the closed day's snapshot, with the same
// period, divergence and sample count — both run one test over one set of
// timestamps. (A per-pair analyzer fed in arrival order, which builds up to
// PR 15 kept, takes |Δ| of successive arrivals and misses the out-of-order
// host.) The popularity cut is the close's too: a new domain whose beaconing
// hosts are listed while nine have contacted it drops out of the view when the
// tenth arrives mid-day — its shard sees every host of the domain, so it can
// tell — and the close, which finds it new but popular, agrees.
func TestLiveViewIsCloseVerdict(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 3, RetainDayReports: -1})
	defer e.Close()
	day := testDay()
	if err := e.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}
	var recs []logs.ProxyRecord
	for i := 0; i < 24; i++ {
		recs = append(recs, rec(day, "h-clean", "c2-clean.test", time.Duration(i)*10*time.Minute))
		// ±2 s of jitter stays inside the 10 s bin.
		jitter := time.Duration((i*7)%5-2) * time.Second
		recs = append(recs, rec(day, "h-jitter", "c2-jitter.test", time.Duration(i)*5*time.Minute+jitter))
		// Pairwise swapped arrivals: 10, 0, 30, 20, ... minutes.
		recs = append(recs, rec(day, "h-swapped", "c2-swapped.test", time.Duration(i^1)*10*time.Minute))
	}
	for h := 0; h < 4; h++ {
		for k, off := range []time.Duration{0, 7, 11, 55, 180, 183, 260, 400} {
			recs = append(recs, rec(day, fmt.Sprintf("browser-%d", h), fmt.Sprintf("news-%d.test", k%3),
				(off+time.Duration(13*h))*time.Minute))
		}
	}
	// Nine hosts beaconing to one new domain, all morning.
	const crowd = "c2-crowd.test"
	for h := 0; h < 9; h++ {
		for i := 0; i < 24; i++ {
			recs = append(recs, rec(day, fmt.Sprintf("h-crowd-%d", h), crowd, time.Duration(i)*10*time.Minute+time.Duration(h)*time.Second))
		}
	}
	ingestChunks(t, e, recs)
	listed := func() (pairs int) {
		for _, p := range e.LiveAutomated(0) {
			if p.Domain == crowd {
				pairs++
			}
		}
		return pairs
	}
	liveDomains := func() (n int) {
		for _, ss := range e.Stats().Shards {
			n += ss.LiveDomains
		}
		return n
	}
	if got := listed(); got != 9 {
		t.Fatalf("live view lists %d pairs of the nine-host domain, want 9", got)
	}
	domainsBefore := liveDomains()
	// The tenth host: one visit takes the domain to the popularity threshold.
	if err := ingest1(e, rec(day, "h-crowd-9", crowd, 5*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := listed(); got != 0 {
		t.Fatalf("live view still lists %d pairs of a domain ten hosts have contacted", got)
	}
	if got := liveDomains(); got != domainsBefore-1 {
		t.Fatalf("liveDomains = %d after the domain turned popular, want %d", got, domainsBefore-1)
	}

	live := e.LiveAutomated(0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := e.DayReport(day.Format("2006-01-02"))
	if !ok {
		t.Fatal("no day report")
	}
	if _, rare := rep.Snapshot.Rare[crowd]; rare {
		t.Fatalf("fixture: the closed day holds %s rare; ten hosts should make it popular", crowd)
	}
	want := make(map[[2]string]histogram.Verdict)
	for _, ad := range e.Pipeline().Detector().FindAutomatedParallel(rep.Snapshot, 1) {
		for i, v := range ad.Verdicts {
			if v.Automated {
				want[[2]string{ad.Activity.Hosts[i].Host, ad.Domain}] = v
			}
		}
	}
	for _, p := range [][2]string{{"h-clean", "c2-clean.test"}, {"h-jitter", "c2-jitter.test"}, {"h-swapped", "c2-swapped.test"}} {
		if _, ok := want[p]; !ok {
			t.Fatalf("fixture: the closed day does not mark %v automated: %v", p, want)
		}
	}
	if len(live) != len(want) {
		t.Fatalf("live view lists %d pairs, the close marks %d\nlive:  %+v\nclose: %v", len(live), len(want), live, want)
	}
	for _, p := range live {
		v, ok := want[[2]string{p.Host, p.Domain}]
		if !ok {
			t.Fatalf("live pair %+v is not automated on the closed day", p)
		}
		if p.Period != v.Period || p.Samples != v.Samples || p.Divergence != v.Divergence {
			t.Fatalf("live pair %+v, close verdict %+v", p, v)
		}
	}
}

func TestConcurrentIngest(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 64})
	defer e.Close()
	if err := e.BeginDay(testDay(), nil); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 500
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				host := fmt.Sprintf("h%d", (g*perG+i)%23)
				domain := fmt.Sprintf("d%d.test", (g*perG+i)%41)
				if err := ingest1(e, rec(testDay(), host, domain, time.Duration(i)*time.Second)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	// Poll stats concurrently to shake out reader/rollover races.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = e.Stats()
				_ = e.LiveAutomated(5)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, ok := e.DayReport("2014-02-03")
	if !ok {
		t.Fatal("no report")
	}
	if rep.Stats.Records != goroutines*perG {
		t.Fatalf("Records = %d, want %d", rep.Stats.Records, goroutines*perG)
	}
	if rep.Stats.Kept != goroutines*perG {
		t.Fatalf("Kept = %d, want %d", rep.Stats.Kept, goroutines*perG)
	}
}

func TestIngestAfterClose(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 1})
	e.Close()
	if err := ingest1(e, rec(testDay(), "h", "zeta.test", 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}
