package stream

// Ingest-throughput baselines for the streaming hot path. Run with
//
//	go test ./internal/stream -bench BenchmarkIngest -benchmem
//
// The rec/s metric is the headline number CHANGES.md tracks across PRs.
// Records cycle through a fixed (host, domain) working set so the per-pair
// live state stays bounded while the visit buffer grows as it would in a
// real day; no rollover happens inside the timed loop.

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/inputs"
	"repro/internal/logs"
	"repro/internal/normalize"
)

// discardEngine stops the shard workers without flushing the accumulated
// mega-day through the pipeline (not what ingest benchmarks measure) so a
// finished benchmark's engine doesn't stay reachable, inflating GC pressure
// for the benchmarks that run after it.
func discardEngine(b *testing.B, e *Engine) {
	b.Cleanup(func() { abandonEngine(e) })
}

func benchRecords(n int) []logs.ProxyRecord {
	base := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	recs := make([]logs.ProxyRecord, n)
	for i := range recs {
		recs[i] = logs.ProxyRecord{
			Time:      base.Add(time.Duration(i) * 50 * time.Millisecond),
			Host:      fmt.Sprintf("host-%03d", i%64),
			SrcIP:     netip.AddrFrom4([4]byte{10, 1, byte(i % 64), 7}),
			Domain:    fmt.Sprintf("dom-%03d.example.net", i%61),
			DestIP:    netip.AddrFrom4([4]byte{198, 51, 100, byte(i % 61)}),
			URL:       "http://example.net/index.html",
			Method:    "GET",
			Status:    200,
			UserAgent: "bench-agent/1.0",
		}
	}
	return recs
}

// spreadDomains rewrites benchRecords' domains — which all fold to
// example.net, one domain and therefore one shard — to 61 registrable domains,
// for the benchmarks and tests that are about more than one shard.
func spreadDomains(recs []logs.ProxyRecord) []logs.ProxyRecord {
	for i := range recs {
		recs[i].Domain = fmt.Sprintf("www.dom-%03d.example", i%61)
	}
	return recs
}

func benchIngest(b *testing.B, shards int, parallel bool) {
	b.Helper()
	recs := spreadDomains(benchRecords(4096))
	e := trainOnlyEngine(Config{Shards: shards, QueueDepth: 8192})
	discardEngine(b, e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := ingest1(e, recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			if err := ingest1(e, recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkIngestSingleShard(b *testing.B)    { benchIngest(b, 1, false) }
func BenchmarkIngest8Shard(b *testing.B)         { benchIngest(b, 8, false) }
func BenchmarkIngest8ShardParallel(b *testing.B) { benchIngest(b, 8, true) }

// benchIngestBatch measures the batched hot path. One benchmark op is one
// record (the loop advances b.N record-wise), so ns/op, B/op and allocs/op
// read per record and compare directly against the per-record benchmarks
// above.
func benchIngestBatch(b *testing.B, shards, batchSize int, parallel bool) {
	b.Helper()
	recs := spreadDomains(benchRecords(4096))
	e := trainOnlyEngine(Config{Shards: shards, QueueDepth: 8192})
	discardEngine(b, e)
	if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			start := 0
			for {
				n := 0
				for n < batchSize && pb.Next() {
					n++
				}
				if n == 0 {
					return
				}
				if start+n > len(recs) {
					start = 0
				}
				if err := e.IngestBatch(recs[start : start+n]); err != nil {
					b.Fatal(err)
				}
				start += n
			}
		})
	} else {
		start := 0
		for i := 0; i < b.N; i += batchSize {
			n := min(batchSize, b.N-i)
			if start+n > len(recs) {
				start = 0
			}
			if err := e.IngestBatch(recs[start : start+n]); err != nil {
				b.Fatal(err)
			}
			start += n
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkIngestBatchSingleShard(b *testing.B)    { benchIngestBatch(b, 1, 512, false) }
func BenchmarkIngestBatch8Shard(b *testing.B)         { benchIngestBatch(b, 8, 512, false) }
func BenchmarkIngestBatch8ShardParallel(b *testing.B) { benchIngestBatch(b, 8, 512, true) }

// BenchmarkIngestBatchOfOne prices the batch machinery at its worst case:
// a batch of one.
func BenchmarkIngestBatchOfOne(b *testing.B) { benchIngestBatch(b, 1, 1, false) }

// scatteredRecords is benchRecords with consecutive records landing on
// distinct second-level domains, so no consecutive domain runs survive
// folding and applyBatch folds every record as a run of one (benchRecords
// all fold to example.net — one run per batch).
func scatteredRecords(n int) []logs.ProxyRecord {
	recs := benchRecords(n)
	for i := range recs {
		recs[i].Domain = fmt.Sprintf("scat-%02d.net", i%61)
	}
	return recs
}

// buildItems reduces records to the shard work items routeBatchLocked
// would queue, so the apply benchmarks time the shard-side fold alone.
func buildItems(b testing.TB, recs []logs.ProxyRecord) []item {
	b.Helper()
	items := make([]item, 0, len(recs))
	var red normalize.ProxyReducer
	for i := range recs {
		host, folded, outcome := red.Key(&recs[i], nil)
		it := item{seq: uint64(i + 1)}
		switch outcome {
		case normalize.ProxyDroppedIPLiteral:
			b.Fatal("bench record dropped as IP literal")
		case normalize.ProxyDroppedUnresolved:
			it.domain = folded
		default:
			it.resolved = true
			normalize.FillVisit(&it.visit, &recs[i], host, folded)
		}
		items = append(items, it)
	}
	return items
}

// benchApplyBatch times the shard fold in isolation on an unstarted shard:
// no queue hop, no routing hash — per-batch cost is one pooled-buffer fill
// (the same copy routing performs) plus applyBatch. One benchmark op is
// one record, so rec/s compares against the ingest benchmarks as the
// apply-side share of their budget. The historical domains, if any, are
// committed to the engine's history first, so their runs fold as markers.
func benchApplyBatch(b *testing.B, recs []logs.ProxyRecord, historical ...string) {
	b.Helper()
	const batchSize = 512
	e := trainOnlyEngine(Config{Shards: 1})
	discardEngine(b, e)
	if len(historical) > 0 {
		e.hist.UpdateDomains(testDay().AddDate(0, 0, -1), historical)
	}
	s := newShard(e, 0)
	items := buildItems(b, recs)
	b.ReportAllocs()
	b.ResetTimer()
	start := 0
	for i := 0; i < b.N; i += batchSize {
		n := min(batchSize, b.N-i)
		if start+n > len(items) {
			start = 0
		}
		buf := e.getBuf(n)
		*buf = append(*buf, items[start:start+n]...)
		s.applyBatch(buf) // returns buf to the pool
		start += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkApplyBatch folds domain-clustered traffic (one run per batch);
// BenchmarkApplyBatchScattered is the scattered-input price of the same
// path — runs of one, a cursor and a history check per record.
// BenchmarkApplyBatchKnown is the clustered batch with its one folded domain
// already in the history — the delta to BenchmarkApplyBatch is what the
// history filter saves per visit to an already-profiled domain.
func BenchmarkApplyBatch(b *testing.B)          { benchApplyBatch(b, benchRecords(4096)) }
func BenchmarkApplyBatchScattered(b *testing.B) { benchApplyBatch(b, scatteredRecords(4096)) }
func BenchmarkApplyBatchKnown(b *testing.B)     { benchApplyBatch(b, benchRecords(4096), "example.net") }

// BenchmarkIngestToReport measures the full streaming day cycle: ingest a
// fixed-size day and roll it over through the pipeline Train path. The
// per-day Flush waits for each day-close, so this is the serial (no
// overlap) baseline; BenchmarkIngestToReportPipelined overlaps them.
func BenchmarkIngestToReport(b *testing.B) {
	const perDay = 20000
	recs := spreadDomains(benchRecords(perDay))
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 8192})
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := day.AddDate(0, 0, i)
		if err := e.BeginDay(d, nil); err != nil {
			b.Fatal(err)
		}
		for j := range recs {
			recs[j].Time = d.Add(time.Duration(j) * 4 * time.Millisecond)
			if err := ingest1(e, recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*perDay/b.Elapsed().Seconds(), "rec/s")
	e.Close()
}

// BenchmarkIngestToReportPipelined is the swap-and-continue day cycle:
// days roll over via BeginDay, so day N's pipeline close runs on the
// background goroutine while day N+1's records stream in through the
// batched hot path. The one Flush at the end (inside the timed region)
// waits out the final close, so the measured work matches the serial
// baseline exactly — the difference is pure overlap.
func BenchmarkIngestToReportPipelined(b *testing.B) {
	const perDay, batchSize = 20000, 512
	recs := spreadDomains(benchRecords(perDay))
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 8192})
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := day.AddDate(0, 0, i)
		if err := e.BeginDay(d, nil); err != nil {
			b.Fatal(err)
		}
		for j := range recs {
			recs[j].Time = d.Add(time.Duration(j) * 4 * time.Millisecond)
		}
		for j := 0; j < perDay; j += batchSize {
			if err := e.IngestBatch(recs[j:min(j+batchSize, perDay)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*perDay/b.Elapsed().Seconds(), "rec/s")
	e.Close()
}

// BenchmarkIngestToReportPipelinedTSV is the pipelined day cycle fed the way
// the daemon is fed: each day is encoded to proxy TSV and decoded back through
// the pooled zero-copy batch reader (what handleIngest, ReplayDir and the
// batch loader run) before the batched ingest, so the measured cycle includes
// the decode path end to end.
func BenchmarkIngestToReportPipelinedTSV(b *testing.B) {
	const perDay, batchSize = 20000, 512
	recs := spreadDomains(benchRecords(perDay))
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 8192})
	day := time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC)
	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	buf := logs.GetProxyBuf(perDay)
	defer func() { logs.PutProxyBuf(buf) }()
	var tsv []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := day.AddDate(0, 0, i)
		if err := e.BeginDay(d, nil); err != nil {
			b.Fatal(err)
		}
		for j := range recs {
			recs[j].Time = d.Add(time.Duration(j) * 4 * time.Millisecond)
		}
		tsv = tsv[:0]
		for _, r := range recs {
			tsv = logs.AppendProxy(tsv, r)
		}
		var err error
		buf, err = logs.ReadProxyBatch(bytes.NewReader(tsv), dec, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(buf); j += batchSize {
			if err := e.IngestBatch(buf[j:min(j+batchSize, len(buf))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*perDay/b.Elapsed().Seconds(), "rec/s")
	e.Close()
}

// BenchmarkReplayDir is the packaged replay (reprod -replay) over three
// generated day files: file decode on the calling goroutine, routing on
// AcceptBatch's goroutines at most 2 × Shards chunks behind it, the day
// closes overlapped with the next day's ingest. Every
// iteration starts as a fresh process does — a new engine, and two collections
// so the record, route-buffer and decoder pools are empty — which makes B/op
// the memory a replay allocates from cold, not what a warm pool hides.
func BenchmarkReplayDir(b *testing.B) {
	counts := []int{30000, 30000, 30000}
	dir, _ := writeReplayDataset(b, counts)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		e := newReplayEngine(len(counts) + 1)
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		if err := ReplayDir(e, dir, ReplayOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
	}
	b.ReportMetric(float64(b.N*(counts[0]+counts[1]+counts[2]))/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkListenerConns prices a live listener connection into a real engine
// by how much it carries and how many run at once: conns connections, each
// carrying recs newline-framed records, per op. Every batch (at most
// DefaultBatchRecords) goes through AcceptBatch and routes on a goroutine of
// its own while the connection decodes the next, which pays off only on a
// connection of several batches while idle cores remain; the one-record and
// one-batch shapes pay the routing goroutine and the wait for it, and more
// connections than cores leave no core idle. Those shapes read from memory,
// in one read per 64 KiB chunk, so a connection past its first chunk starts
// its read-ahead with no kernel read for it to take off the loop; the /tcp
// shape carries the longest connection over loopback TCP instead, and the
// /stats-poll shape runs it beside a Stats call every millisecond, as a
// poller of /stats does. ns/rec is the op's time over the records it
// delivered. Run with
//
//	go test ./internal/stream -run '^$' -bench BenchmarkListenerConns -benchmem
func BenchmarkListenerConns(b *testing.B) {
	type shape struct {
		conns, recs int
		via         string // "": from memory; "tcp"; "stats-poll"
	}
	var shapes []shape
	for _, conns := range []int{1, 8} {
		for _, n := range []int{1, 64, 2 * inputs.DefaultBatchRecords, 32 * inputs.DefaultBatchRecords} {
			shapes = append(shapes, shape{conns, n, ""})
		}
	}
	shapes = append(shapes, shape{1, 32 * inputs.DefaultBatchRecords, "tcp"}, shape{1, 32 * inputs.DefaultBatchRecords, "stats-poll"})
	for _, sh := range shapes {
		name := fmt.Sprintf("conns=%d/recs=%d", sh.conns, sh.recs)
		if sh.via != "" {
			name += "/" + sh.via
		}
		b.Run(name, func(b *testing.B) {
			var wire []byte
			for _, r := range spreadDomains(benchRecords(sh.recs)) {
				wire = logs.AppendProxy(wire, r)
			}
			e := trainOnlyEngine(Config{Shards: runtime.GOMAXPROCS(0)})
			discardEngine(b, e)
			if err := e.BeginDay(time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC), nil); err != nil {
				b.Fatal(err)
			}
			l := inputs.NewListener(noShed{e}, inputs.Config{Name: "bench", Framing: inputs.FramingNewline})
			conn := func() net.Conn { return &wireConn{Reader: bytes.NewReader(wire)} }
			if sh.via == "tcp" {
				conn = loopbackConns(b, wire)
			}
			if sh.via == "stats-poll" {
				stop := make(chan struct{})
				polled := make(chan struct{})
				go func() {
					defer close(polled)
					tick := time.NewTicker(time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							e.Stats()
						}
					}
				}()
				defer func() { close(stop); <-polled }()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for range sh.conns {
					wg.Add(1)
					c := conn()
					go func() {
						defer wg.Done()
						if err := l.HandleConn(c); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if got, want := l.Stats().Records, int64(b.N*sh.conns*sh.recs); got != want {
				b.Fatalf("engine accepted %d records, want %d", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.conns*sh.recs), "ns/rec")
		})
	}
}

// loopbackConns returns a source of loopback TCP connections, each the
// accepted end of a connection whose peer writes wire and closes.
func loopbackConns(b *testing.B, wire []byte) func() net.Conn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	return func() net.Conn {
		go func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Write(wire); err != nil {
				b.Error(err)
			}
		}()
		c, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
}

// wireConn is a connection whose peer has already sent everything in Reader
// and closed its side.
type wireConn struct {
	*bytes.Reader
	net.Conn // never called: HandleConn only reads and closes
}

func (c *wireConn) Read(p []byte) (int, error) { return c.Reader.Read(p) }
func (c *wireConn) Close() error               { return nil }
