package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/logs"
)

// lateOracle replays an arrival sequence through the documented
// AutoRollover policy, sequentially: a record of a later day rolls the
// open day over; a record of an earlier day (a late straggler) is folded
// into the open day and counted; everything else lands in the open day.
type lateOracle struct {
	open    time.Time
	late    uint64
	perDay  map[string]int
	rollSeq []string
}

func (o *lateOracle) apply(r logs.ProxyRecord) {
	d := recDay(&r)
	switch {
	case o.open.IsZero() || d.After(o.open):
		o.open = d
		o.rollSeq = append(o.rollSeq, d.Format("2006-01-02"))
	case d.Before(o.open):
		o.late++
	}
	o.perDay[o.open.Format("2006-01-02")]++
}

// interleave builds a mostly chronological multi-day arrival sequence with
// a controlled fraction of late stragglers: each record is delayed by a
// random number of positions, so some cross their day's rollover boundary
// and arrive under a newer open day.
func interleave(rng *rand.Rand, days, perDay, maxDelay int) []logs.ProxyRecord {
	base := testDay()
	type slot struct {
		pos int
		rec logs.ProxyRecord
	}
	slots := make([]slot, 0, days*perDay)
	i := 0
	for day := 0; day < days; day++ {
		d := base.AddDate(0, 0, day)
		for j := 0; j < perDay; j++ {
			r := rec(d, fmt.Sprintf("h%d", j%5), fmt.Sprintf("dom-%d.test", j%7),
				time.Duration(j)*time.Minute)
			pos := i
			if rng.Intn(3) == 0 { // every third record straggles
				pos += rng.Intn(maxDelay)
			}
			slots = append(slots, slot{pos: pos, rec: r})
			i++
		}
	}
	// Stable-by-construction: sort by delayed position, breaking ties by
	// original order so the interleaving is deterministic in the seed.
	for a := 1; a < len(slots); a++ {
		for b := a; b > 0 && slots[b].pos < slots[b-1].pos; b-- {
			slots[b], slots[b-1] = slots[b-1], slots[b]
		}
	}
	out := make([]logs.ProxyRecord, len(slots))
	for k, s := range slots {
		out[k] = s.rec
	}
	return out
}

// TestLateRecordsMatchSequentialOracle is the out-of-order property test:
// for randomized interleavings of late records under AutoRollover, the
// engine's fold-into-open-day policy — which days exist, how many records
// each absorbed, and Stats.LateRecords — must match the sequential oracle,
// for both ingestion shapes.
func TestLateRecordsMatchSequentialOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d batched=%v", seed, batched), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				arrivals := interleave(rng, 4, 120, 150)

				oracle := &lateOracle{perDay: make(map[string]int)}
				for _, r := range arrivals {
					oracle.apply(r)
				}
				if oracle.late == 0 {
					t.Fatalf("seed %d produced no late records; property vacuous", seed)
				}

				e := trainOnlyEngine(Config{Shards: 3, QueueDepth: 256, AutoRollover: true})
				defer e.Close()
				if batched {
					recs := arrivals
					for len(recs) > 0 {
						n := min(31, len(recs))
						if err := e.IngestBatch(recs[:n]); err != nil {
							t.Fatal(err)
						}
						recs = recs[n:]
					}
				} else {
					for _, r := range arrivals {
						if err := ingest1(e, r); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}

				st := e.Stats()
				if st.LateRecords != oracle.late {
					t.Errorf("LateRecords = %d, oracle says %d", st.LateRecords, oracle.late)
				}
				dates := e.Dates()
				if len(dates) != len(oracle.rollSeq) {
					t.Fatalf("completed days %v, oracle rolled %v", dates, oracle.rollSeq)
				}
				for i, d := range oracle.rollSeq {
					if dates[i] != d {
						t.Fatalf("day %d = %s, oracle rolled %s (full: %v vs %v)",
							i, dates[i], d, dates, oracle.rollSeq)
					}
				}
				for date, wantRecords := range oracle.perDay {
					rep, ok := e.DayReport(date)
					if !ok {
						t.Errorf("no report for %s", date)
						continue
					}
					if rep.Stats.Records != wantRecords {
						t.Errorf("day %s absorbed %d records, oracle says %d",
							date, rep.Stats.Records, wantRecords)
					}
				}
			})
		}
	}
}
