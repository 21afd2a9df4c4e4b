package eval

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/histogram"
	"repro/internal/normalize"
	"repro/internal/profile"
)

// GeneralityResult compares C&C visibility across data sources (§II-C: the
// infection patterns persist across proxy logs, DNS logs and NetFlow).
type GeneralityResult struct {
	Campaigns int
	// ProxyVisible counts campaigns whose C&C channel is rare+automated in
	// the proxy view.
	ProxyVisible int
	// FlowVisible counts the same in the NetFlow view (destination = IP).
	FlowVisible int
}

// Generality renders the same synthetic enterprise through the proxy and
// NetFlow reductions and checks, per campaign, whether the C&C channel
// survives as a rare automated destination in each view.
func Generality(scale Scale, seed int64) (GeneralityResult, *Table) {
	e := gen.NewEnterprise(EnterpriseScale(scale, seed))
	cfg := e.Config() // defaults applied
	hcfg := histogram.DefaultConfig()

	proxyHist := profile.NewHistory()
	flowHist := profile.NewHistory()
	var res GeneralityResult

	t := &Table{
		Title:   "Generality: C&C visibility per data source (§II-C)",
		Headers: []string{"Campaign", "Proxy view", "NetFlow view"},
	}

	automatedToward := func(snap *profile.Snapshot, dest string) bool {
		da, ok := snap.Rare[dest]
		if !ok {
			return false
		}
		for _, ha := range da.Hosts {
			if histogram.AnalyzeTimes(ha.Times, hcfg).Automated {
				return true
			}
		}
		return false
	}

	for day := 0; day < e.NumDays(); day++ {
		date := e.DayTime(day)
		leases := e.DHCPMap(day)
		proxyVisits, _ := normalize.ReduceProxy(e.Day(day), leases)
		flowVisits, _ := normalize.ReduceFlows(e.FlowDay(day), leases)
		proxySnap := profile.NewSnapshot(date, proxyVisits, proxyHist, cfg.UnpopularThreshold)
		flowSnap := profile.NewSnapshot(date, flowVisits, flowHist, cfg.UnpopularThreshold)

		for _, c := range e.Truth.CampaignsOn(date) {
			res.Campaigns++
			proxyOK := automatedToward(proxySnap, c.CCDomain)
			flowOK := automatedToward(flowSnap, e.Truth.DomainIP[c.CCDomain].String())
			if proxyOK {
				res.ProxyVisible++
			}
			if flowOK {
				res.FlowVisible++
			}
			t.AddRow(c.ID, visLabel(proxyOK), visLabel(flowOK))
		}

		proxySnap.Commit(proxyHist)
		flowSnap.Commit(flowHist)
	}
	t.AddRow("total",
		fmt.Sprintf("%d/%d", res.ProxyVisible, res.Campaigns),
		fmt.Sprintf("%d/%d", res.FlowVisible, res.Campaigns))
	return res, t
}

func visLabel(ok bool) string {
	if ok {
		return "visible"
	}
	return "MISSED"
}
