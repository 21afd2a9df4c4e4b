package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/logs"
	"repro/internal/report"
	"repro/internal/whois"
)

// builderRecOf finds domain's record in a serialized builder section (alone
// or inside a checkpoint) and returns how many host activities and known
// visits it carries. History and marker records also have a "d" key but no
// "hosts" array, which is what tells a builder record apart.
func builderRecOf(t testing.TB, section []byte, domain string) (hosts, known int) {
	t.Helper()
	for _, line := range bytes.Split(section, []byte("\n")) {
		var r struct {
			D     string            `json:"d"`
			Hosts []json.RawMessage `json:"hosts"`
			Known int               `json:"known"`
		}
		if json.Unmarshal(line, &r) == nil && r.D == domain && r.Hosts != nil {
			return len(r.Hosts), r.Known
		}
	}
	t.Fatalf("no builder record for %s", domain)
	return 0, 0
}

// TestKnownFilterMatchesBatch holds the ingest-side history filter to the
// unfiltered batch fold on a day that has all three kinds of domain: ones
// the history already holds (the fixture's popular sites: folded as
// markers), fresh ones (profiled), and one that turns historical mid-day —
// committed into the engine's history between two batches of the open day,
// the way yesterday's close can land while today streams in. By then the
// turning domain is live, with a profile, on its one shard, which keeps
// profiling it for the rest of the day — the late hosts too — and never
// consults the history for it again: its aggregate holds hosts and no known
// count (asserted on the mid-day checkpoint), and it is the close that finds
// the domain historical and discards the profile. Reports must equal the batch
// reference — which sees that domain in its history before the day starts —
// byte for byte, at one and three shards, with and without a mid-day
// checkpoint -> restore onto another shard count.
func TestKnownFilterMatchesBatch(t *testing.T) {
	fx := newEquivFixture(t, 81)
	days, err := batch.DiscoverEnterprise(fx.dir)
	if err != nil {
		t.Fatal(err)
	}
	turnDay := len(days) - 2 // a post-calibration operation day
	const turning = "turning-midday.example"
	const lateHosts = 4 // with the early host, under the popularity threshold: rare, unless the close finds it historical

	// The turn day in three parts, each the fixture's third plus synthetic
	// visits to the turning domain: one early host throughout, the late
	// hosts only after the commit.
	organic, leases, err := batch.LoadProxyDay(days[turnDay])
	if err != nil {
		t.Fatal(err)
	}
	visit := func(host string, minute int) logs.ProxyRecord {
		r := rec(days[turnDay].Date, host, "www."+turning, time.Duration(minute)*time.Minute)
		r.DestIP = netip.MustParseAddr("203.0.113.80")
		r.URL = fmt.Sprintf("http://www.%s/page-%d", turning, minute%5)
		r.UserAgent = "turning-agent/" + host
		return r
	}
	var parts [3][]logs.ProxyRecord
	for p := range parts {
		parts[p] = append(parts[p], organic[p*len(organic)/3:(p+1)*len(organic)/3]...)
		for i := 0; i < 5; i++ {
			parts[p] = append(parts[p], visit("early-0", 100*p+i))
		}
		if p > 0 {
			for h := 0; h < lateHosts; h++ {
				parts[p] = append(parts[p], visit(fmt.Sprintf("late-%d", h), 100*p+10+h), visit(fmt.Sprintf("late-%d", h), 100*p+40+h))
			}
		}
	}

	// Reference: internal/batch's per-day loop, the turning domain already
	// historical when its day is processed.
	want := make(map[string][]byte)
	ref := fx.newPipeline()
	for i, d := range days {
		recs, dayLeases, err := batch.LoadProxyDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == turnDay {
			recs = append(append(append([]logs.ProxyRecord(nil), parts[0]...), parts[1]...), parts[2]...)
			ref.History().UpdateDomains(d.Date, []string{turning})
		}
		if i < fx.training {
			ref.Train(d.Date, recs, dayLeases)
			continue
		}
		rep := ref.Process(d.Date, recs, dayLeases)
		want[d.Date.Format("2006-01-02")] = dailyBytes(t, report.Build(rep))
	}

	deps := RestoreDeps{Whois: fx.whois, Reported: fx.oracle.Reported, IOCs: fx.oracle.IOCs}
	for _, shards := range []int{1, 3} {
		for _, restore := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/restore=%v", shards, restore), func(t *testing.T) {
				e := New(Config{Shards: shards, QueueDepth: 256, TrainingDays: fx.training}, fx.newPipeline())
				for i, d := range days {
					if i != turnDay {
						recs, dayLeases, err := batch.LoadProxyDay(d)
						if err != nil {
							t.Fatal(err)
						}
						if err := e.BeginDay(d.Date, dayLeases); err != nil {
							t.Fatal(err)
						}
						ingestChunks(t, e, recs)
						continue
					}
					if err := e.BeginDay(d.Date, leases); err != nil {
						t.Fatal(err)
					}
					ingestChunks(t, e, parts[0])
					// Stats drains the shard queues, so the early host's shard
					// has profiled the turning domain before the commit lands.
					knownSoFar := 0
					for _, ss := range e.Stats().Shards {
						knownSoFar += ss.KnownVisits
					}
					if knownSoFar == 0 {
						t.Fatal("no visit of the open day folded as known: the fixture's popular domains should be")
					}
					e.Pipeline().History().UpdateDomains(d.Date, []string{turning})
					ingestChunks(t, e, parts[1])

					var ckpt bytes.Buffer
					if err := e.Checkpoint(&ckpt); err != nil {
						t.Fatal(err)
					}
					if hosts, known := builderRecOf(t, ckpt.Bytes(), turning); hosts != 1+lateHosts || known != 0 {
						t.Errorf("turning domain holds %d host activities and %d known visits, want %d and 0: its shard profiled it before the commit and must go on profiling every host's visits", hosts, known, 1+lateHosts)
					}
					if restore {
						restored, err := Restore(&ckpt, Config{Shards: shards + 1, QueueDepth: 64}, deps)
						if err != nil {
							t.Fatal(err)
						}
						abandonEngine(e)
						e = restored
					}
					ingestChunks(t, e, parts[2])
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
			})
		}
	}
}

// TestRestoreKnownCounts: a builder section whose domain carries a known
// count restores when the same file's history holds the domain, and the
// count comes back as the shard's KnownVisits; the same section as the
// parent commit wrote it — no "known" field anywhere — restores too.
func TestRestoreKnownCounts(t *testing.T) {
	history := `{"version":1,"days":1,"domains":1,"uas":0}` + "\n" + `{"d":"a.test","t":"2014-02-01T00:00:00Z"}`
	for name, tc := range map[string]struct {
		builder string
		known   int
	}{
		"known":        {`{"version":1,"visits":3,"domains":1,"uaPairs":0}` + "\n" + `{"d":"a.test","hosts":[` + okHost + `],"known":2}`, 2},
		"parentFormat": {`{"version":1,"visits":1,"domains":1,"uaPairs":0}` + "\n" + `{"d":"a.test","hosts":[` + okHost + `]}`, 0},
	} {
		t.Run(name, func(t *testing.T) {
			e, err := Restore(bytes.NewReader(fuzzV2Hist(history, okMeta, tc.builder)), Config{Shards: 1}, RestoreDeps{Whois: whois.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer abandonEngine(e)
			st := e.Stats()
			if got := st.Shards[0].KnownVisits; got != tc.known {
				t.Errorf("restored KnownVisits = %d, want %d", got, tc.known)
			}
			if st.ResidentBuilderDomains != 1 {
				t.Errorf("restored %d builder domains, want 1", st.ResidentBuilderDomains)
			}
		})
	}
	if strings.Contains(string(fuzzCheckpointBytes(t)), `"known"`) {
		t.Error(`a checkpoint with no historical traffic mentions "known": the field must stay optional`)
	}
}
