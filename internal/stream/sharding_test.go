package stream

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/logs"
	"repro/internal/report"
)

// assertShardsDomainDisjoint fails if any domain sits on two shards — in their
// builders or their lease-less marker sets. It is what routing by domain
// guarantees and what the close (profile.ClassifyDisjoint, markerOnly) relies
// on. Returns how many distinct domains the shards hold.
func assertShardsDomainDisjoint(t *testing.T, label string, e *Engine) int {
	t.Helper()
	held := make([][]string, len(e.shards))
	e.mu.Lock()
	e.quiesce(func(i int, s *shard) {
		held[i] = s.part.DomainNames()
		for d := range s.markers {
			if !s.part.HasDomain(d) {
				held[i] = append(held[i], d)
			}
		}
	})
	e.mu.Unlock()
	owner := make(map[string]int)
	for i, names := range held {
		for _, d := range names {
			if j, dup := owner[d]; dup {
				t.Fatalf("%s: domain %s is held by shards %d and %d", label, d, j, i)
			}
			owner[d] = i
		}
	}
	return len(owner)
}

// TestShardsAreDomainDisjoint: after ingest — many hosts per domain, domains
// seen through resolved visits, through lease-less records only, and both
// ways — no domain is on two shards, at several shard counts; nor after a
// checkpoint restores onto a different shard count, nor after the restored
// engine ingests the same traffic again (restored state and new visits of a
// domain must meet on one shard).
func TestShardsAreDomainDisjoint(t *testing.T) {
	day := testDay()
	const domains = 120
	var recs []logs.ProxyRecord
	for i := 0; i < 1500; i++ {
		d := fmt.Sprintf("www.d%d.test", i%domains)
		r := rec(day, fmt.Sprintf("h%d", i%37), d, time.Duration(i)*time.Second)
		// Domains 0-9 are seen lease-less only (bare markers), 10-19 both ways.
		if n := i % domains; n < 10 || (n < 20 && (i/domains)%2 == 0) {
			r.Host, r.SrcIP = "", netip.MustParseAddr("10.9.9.9")
		}
		recs = append(recs, r)
	}
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := trainOnlyEngine(Config{Shards: shards, QueueDepth: 64})
			defer e.Close()
			if err := e.BeginDay(day, nil); err != nil {
				t.Fatal(err)
			}
			ingestChunks(t, e, recs)
			if got := assertShardsDomainDisjoint(t, "after ingest", e); got != domains {
				t.Fatalf("shards hold %d distinct domains, want %d", got, domains)
			}
			var ckpt bytes.Buffer
			if err := e.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(&ckpt, Config{Shards: shards + 3, QueueDepth: 64}, RestoreDeps{})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if got := assertShardsDomainDisjoint(t, "after restore", restored); got != domains {
				t.Fatalf("restored shards hold %d distinct domains, want %d", got, domains)
			}
			ingestChunks(t, restored, recs)
			if got := assertShardsDomainDisjoint(t, "after restore + ingest", restored); got != domains {
				t.Fatalf("restored shards hold %d distinct domains after more ingest, want %d", got, domains)
			}
		})
	}
}

// TestSkewedDayMatchesBatch is the cost side of routing by domain: a day on
// which one new domain carries 90 % of the records puts 90 % of the work on
// one of four shards. The reports must still equal batch byte for byte, and
// the skew must not turn into load shedding: a shard queue counts batches, and
// a batch takes one slot on the hot shard however many of its records go
// there, so at the default depth Lagging stays false throughout. The per-shard
// ingested counters are where an operator sees the skew.
func TestSkewedDayMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 83)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	skewDay := len(days) - 2 // a post-calibration operation day
	const hot = "hot-today.example"

	organic, skewLeases, err := batch.LoadProxyDay(days[skewDay])
	if err != nil {
		t.Fatal(err)
	}
	// Five hosts — under the popularity threshold, so the domain is rare and
	// its whole profile reaches the detector — interleaved with the organic
	// traffic nine to one.
	skewed := make([]logs.ProxyRecord, 0, 10*len(organic))
	for i, r := range organic {
		skewed = append(skewed, r)
		for k := 0; k < 9; k++ {
			n := 9*i + k
			h := rec(days[skewDay].Date, fmt.Sprintf("hot-host-%d", n%5), "cdn."+hot, time.Duration(n)*time.Second)
			h.URL = fmt.Sprintf("http://cdn.%s/asset-%d", hot, n%7)
			h.UserAgent = "hot-agent/1"
			skewed = append(skewed, h)
		}
	}

	want := make(map[string][]byte)
	ref := fx.newPipeline()
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == skewDay {
			recs = skewed
		}
		if i < fx.training {
			ref.Train(d.Date, recs, leases)
			continue
		}
		rep := ref.Process(d.Date, recs, leases)
		want[d.Date.Format("2006-01-02")] = dailyBytes(t, report.Build(rep))
	}

	e := New(Config{Shards: 4, TrainingDays: fx.training}, fx.newPipeline())
	for i, d := range days {
		recs, leases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == skewDay {
			recs, leases = skewed, skewLeases
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			t.Fatal(err)
		}
		before := e.Stats().Shards
		for len(recs) > 0 {
			n := min(97, len(recs))
			if err := e.IngestBatch(recs[:n]); err != nil {
				t.Fatal(err)
			}
			recs = recs[n:]
			if e.Lagging() {
				t.Fatalf("day %d: Lagging with %d records to go: the skewed shard's queue reached the shed threshold", i, len(recs))
			}
		}
		if i != skewDay {
			continue
		}
		assertShardsDomainDisjoint(t, "skew day", e)
		var total, most uint64
		for si, ss := range e.Stats().Shards {
			n := ss.Ingested - before[si].Ingested
			total += n
			most = max(most, n)
		}
		if most*10 < total*9 {
			t.Errorf("busiest shard ingested %d of the skew day's %d routed records, want at least 90%%", most, total)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for date, wantJSON := range want {
		got, ok := e.Report(date)
		if !ok {
			t.Errorf("no report for %s", date)
			continue
		}
		if gotJSON := dailyBytes(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("day %s: stream report differs from batch\nbatch:  %s\nstream: %s", date, wantJSON, gotJSON)
		}
	}
	e.Close()
}
