package stream

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logs"
)

// TestIngestBatchMatchesPerRecord drives the same mixed day (resolved,
// lease-less, IP-literal records) through IngestBatch and through
// one-record batches and requires identical day reports.
func TestIngestBatchMatchesPerRecord(t *testing.T) {
	leases := map[netip.Addr]string{netip.MustParseAddr("10.0.0.7"): "lease-host"}
	day := testDay()
	var recs []logs.ProxyRecord
	for i := 0; i < 200; i++ {
		r := rec(day, fmt.Sprintf("h%d", i%13), fmt.Sprintf("d%d.test", i%37), time.Duration(i)*time.Minute)
		switch i % 10 {
		case 7: // lease-resolved source
			r.Host = ""
			r.SrcIP = netip.MustParseAddr("10.0.0.7")
		case 8: // unresolvable source: marker item
			r.Host = ""
			r.SrcIP = netip.MustParseAddr("10.9.9.9")
		case 9: // IP-literal destination: dropped
			r.Domain = "93.184.216.34"
		}
		recs = append(recs, r)
	}

	run := func(batched bool) *Engine {
		e := trainOnlyEngine(Config{Shards: 3, QueueDepth: 8})
		if err := e.BeginDay(day, leases); err != nil {
			t.Fatal(err)
		}
		if batched {
			rest := recs
			for len(rest) > 0 { // odd chunk size: boundaries align with nothing
				n := min(23, len(rest))
				if err := e.IngestBatch(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
		} else {
			for _, r := range recs {
				if err := ingest1(e, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	single, batched := run(false), run(true)
	defer single.Close()
	defer batched.Close()
	srep, ok := single.DayReport("2014-02-03")
	if !ok {
		t.Fatal("per-record engine has no report")
	}
	brep, ok := batched.DayReport("2014-02-03")
	if !ok {
		t.Fatal("batched engine has no report")
	}
	if srep.Stats != brep.Stats {
		t.Fatalf("stats differ: per-record %+v, batched %+v", srep.Stats, brep.Stats)
	}
	if srep.NewCount != brep.NewCount || srep.RareCount != brep.RareCount {
		t.Fatalf("counts differ: per-record new=%d rare=%d, batched new=%d rare=%d",
			srep.NewCount, srep.RareCount, brep.NewCount, brep.RareCount)
	}
}

// TestRestoreRejectsCorruptCheckpoint: a corrupt, empty or no-longer-read
// checkpoint must fail with a descriptive error, never a panic — the daemon
// turns this into a refusal to start (starting fresh would overwrite the
// history). A v1 file, and a file written while a day-close was in flight,
// must say in full which build still reads it and what to do with it.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	const v1Refusal = "stream: unsupported checkpoint version 1 (format v1 was last readable at PR 13; restore and re-checkpoint with that build)"
	cases := map[string]struct {
		input string
		want  string
	}{
		"empty":           {"", "empty or truncated"},
		"garbage":         {"not a checkpoint\n", "restore header"},
		"negativeDailies": {`{"version":2,"dailies":-5}` + "\n", "corrupt header"},
		"negativeItems":   {`{"version":1,"items":-5}` + "\n", v1Refusal},
		"v1": {`{"version":1,"day":"2014-02-03T00:00:00Z","seq":1,"dayRecords":1,"totalRecords":1,"pipeline":{},"dailies":0,"items":1}` + "\n" +
			`{"version":1,"days":0,"domains":0,"uas":0}` + "\n" + `{"calDays":0,"trained":false}` + "\n" +
			`{"seq":1,"d":"alpha.test"}` + "\n", v1Refusal},
		"noVersion":  {`{}` + "\n", "stream: unsupported checkpoint version 0"},
		"badVersion": {`{"version":99}` + "\n", "stream: unsupported checkpoint version 99"},
		// A parent-format livePairs section is read past, but its count is
		// still validated and a short section is still a truncated file.
		"negativeLivePairs": {string(fuzzV2(`{"markerDomains":0,"unresolved":0,"livePairs":-1}`, emptyBuilder)), "corrupt open-day section"},
		"shortLivePairs":    {string(fuzzV2(`{"markerDomains":0,"unresolved":0,"livePairs":2}`, emptyBuilder+"\n"+parentLivePair)), "restore live pair 1"},
		// A parent build's checkpoint of a day mid-close is refused by name,
		// never restored with that day silently dropped.
		"parentClosingDay": {string(readParentClosingCheckpoint(t)), closingRefusal},
	}
	for _, hb := range hostileBuilders {
		cases[hb.name] = struct{ input, want string }{string(fuzzV2(okMeta, hb.builder)), hb.want}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Restore(strings.NewReader(tc.input), Config{Shards: 1}, RestoreDeps{})
			if err == nil {
				t.Fatal("Restore accepted a corrupt checkpoint")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestConcurrentBatchStress races IngestBatch against Snapshot, Flush and
// Checkpoint (run under -race in CI) and checks no record is lost.
func TestConcurrentBatchStress(t *testing.T) {
	e := trainOnlyEngine(Config{Shards: 4, QueueDepth: 16})
	defer e.Close()
	day := testDay()
	if err := e.BeginDay(day, nil); err != nil {
		t.Fatal(err)
	}

	const ingesters, batches, batchSize = 4, 40, 64
	var work sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			recs := make([]logs.ProxyRecord, batchSize)
			for i := 0; i < batches; i++ {
				for j := range recs {
					recs[j] = rec(day, fmt.Sprintf("h%d", (g+j)%17),
						fmt.Sprintf("d%d.test", (i+j)%29), time.Duration(i*batchSize+j)*time.Second)
				}
				err := e.IngestBatch(recs)
				if errors.Is(err, ErrNoDay) {
					// A concurrent Flush closed the day: reopen, retry.
					if berr := e.BeginDay(day, nil); berr != nil {
						t.Error(berr)
						return
					}
					i--
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	work.Add(1)
	go func() { // mid-stream day completions
		defer work.Done()
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			if err := e.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(2)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = e.Snapshot(5)
			}
		}
	}()
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Checkpoint(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	work.Wait()
	close(stop)
	pollers.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().TotalRecords, uint64(ingesters*batches*batchSize); got != want {
		t.Fatalf("TotalRecords = %d, want %d", got, want)
	}
}
