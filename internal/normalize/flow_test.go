package normalize

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/ccdetect"
	"repro/internal/gen"
	"repro/internal/histogram"
	"repro/internal/logs"
	"repro/internal/profile"
)

func TestReduceFlows(t *testing.T) {
	base := time.Date(2014, 2, 13, 9, 0, 0, 0, time.UTC)
	src := netip.MustParseAddr("10.0.0.5")
	leases := map[netip.Addr]string{src: "host0001"}
	mk := func(dst string, port uint16) logs.FlowRecord {
		return logs.FlowRecord{
			Time: base, SrcIP: src, DstIP: netip.MustParseAddr(dst),
			DstPort: port, Protocol: "tcp", Bytes: 1000, Packets: 10,
		}
	}
	recs := []logs.FlowRecord{
		mk("203.0.113.9", 80),  // kept
		mk("203.0.113.9", 443), // kept
		mk("203.0.113.9", 22),  // dropped: non-web
		mk("10.1.2.3", 80),     // dropped: internal destination
		{Time: base, SrcIP: netip.MustParseAddr("10.9.9.9"), DstIP: netip.MustParseAddr("203.0.113.9"), DstPort: 80}, // unresolved
	}
	visits, stats := ReduceFlows(recs, leases)
	if stats.DroppedNonWeb != 1 || stats.DroppedInternal != 1 || stats.DroppedUnresolved != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if len(visits) != 2 || stats.Destinations != 1 {
		t.Fatalf("kept %d visits, %d destinations", len(visits), stats.Destinations)
	}
	if visits[0].Domain != "203.0.113.9" || visits[0].Host != "host0001" {
		t.Errorf("visit = %+v", visits[0])
	}
	if visits[0].HasUA || visits[0].HasRef {
		t.Error("flow visits carry no HTTP context")
	}
}

// TestFlowPipelineDetectsBeacon proves the paper's generality claim (§II):
// the same periodicity detector catches C&C beaconing in NetFlow data,
// where only flow 5-tuples are visible.
func TestFlowPipelineDetectsBeacon(t *testing.T) {
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 6, TrainingDays: 3, OperationDays: 4,
		Hosts: 30, PopularDomains: 50, NewRarePerDay: 8,
		BenignAutoPerDay: 2, Campaigns: 3,
	})
	hist := profile.NewHistory()
	det := ccdetect.NewLANLDetector() // flow data has no HTTP features

	caught := 0
	for day := 0; day < e.NumDays(); day++ {
		leases := e.DHCPMap(day)
		visits, stats := ReduceFlows(e.FlowDay(day), leases)
		if stats.DroppedUnresolved != 0 {
			t.Fatalf("day %d: unresolved flows: %+v", day, stats)
		}
		snap := profile.NewSnapshot(e.DayTime(day), visits, hist, 10)
		for _, c := range e.Truth.CampaignsOn(e.DayTime(day)) {
			ccIP := e.Truth.DomainIP[c.CCDomain].String()
			da, ok := snap.Rare[ccIP]
			if !ok {
				t.Errorf("campaign %s: C&C address %s not rare in flow view", c.ID, ccIP)
				continue
			}
			// The periodicity structure survives the flow projection: at
			// least one host's connection series to the C&C address must
			// be automated.
			auto := false
			for _, ha := range da.Hosts {
				if histogram.AnalyzeTimes(ha.Times, histogram.DefaultConfig()).Automated {
					auto = true
				}
			}
			if !auto {
				t.Errorf("campaign %s: no automated host toward %s", c.ID, ccIP)
			}
			if len(c.Hosts) >= 2 && det.IsCC(da, e.DayTime(day)) {
				caught++
			}
		}
		snap.Commit(hist)
	}
	t.Logf("multi-host C&C flows flagged by the LANL heuristic: %d", caught)
}
