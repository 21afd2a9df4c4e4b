package batch

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/intel"
	"repro/internal/logs"
	"repro/internal/pipeline"
	"repro/internal/whois"
)

// writeEnterpriseDataset materializes a small generated dataset the way
// cmd/datagen does.
func writeEnterpriseDataset(t *testing.T, dir string, e *gen.Enterprise) {
	t.Helper()
	for day := 0; day < e.NumDays(); day++ {
		date := e.DayTime(day).Format("2006-01-02")
		f, err := os.Create(filepath.Join(dir, "proxy-"+date+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		w := logs.NewProxyWriter(f)
		for _, r := range e.Day(day) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		leases := "{"
		first := true
		for ip, host := range e.DHCPMap(day) {
			if !first {
				leases += ","
			}
			first = false
			leases += `"` + ip.String() + `":"` + host + `"`
		}
		leases += "}"
		if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), []byte(leases), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunEnterpriseDir(t *testing.T) {
	dir := t.TempDir()
	e := gen.NewEnterprise(gen.EnterpriseConfig{
		Seed: 31, TrainingDays: 3, OperationDays: 8,
		Hosts: 30, PopularDomains: 40, NewRarePerDay: 8,
		BenignAutoPerDay: 2, Campaigns: 5,
	})
	writeEnterpriseDataset(t, dir, e)

	reg := whois.NewRegistry()
	gen.PopulateWHOIS(reg, e.Truth, e.RareRegistrations(), e.DayTime(e.NumDays()))
	oracle := intel.NewOracle()
	gen.PopulateOracle(oracle, e.Truth, gen.OracleConfig{Seed: 31})
	p := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: 3},
		reg, oracle.Reported, oracle.IOCs)

	reports, err := RunEnterpriseDir(dir, p, e.Config().TrainingDays)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != e.Config().OperationDays {
		t.Fatalf("reports = %d, want %d", len(reports), e.Config().OperationDays)
	}
	// The on-disk round trip must match an in-memory run exactly.
	p2 := pipeline.NewEnterprise(pipeline.EnterpriseConfig{CalibrationDays: 3},
		reg, oracle.Reported, oracle.IOCs)
	for day := 0; day < e.Config().TrainingDays; day++ {
		p2.Train(e.DayTime(day), e.Day(day), e.DHCPMap(day))
	}
	for i, day := 0, e.Config().TrainingDays; day < e.NumDays(); i, day = i+1, day+1 {
		want := p2.Process(e.DayTime(day), e.Day(day), e.DHCPMap(day))
		got := reports[i]
		if got.RareCount != want.RareCount || len(got.Automated) != len(want.Automated) ||
			len(got.CC) != len(want.CC) {
			t.Errorf("day %d diverges from in-memory run: disk{rare=%d auto=%d cc=%d} mem{rare=%d auto=%d cc=%d}",
				day, got.RareCount, len(got.Automated), len(got.CC),
				want.RareCount, len(want.Automated), len(want.CC))
		}
	}
}

func TestRunDNSDir(t *testing.T) {
	dir := t.TempDir()
	g := gen.NewLANL(gen.LANLConfig{
		Seed: 32, TrainingDays: 3, OperationDays: 3,
		Hosts: 20, Servers: 2, PopularDomains: 30,
		NewRarePerDay: 5, QueriesPerHostDay: 10,
	})
	for day := 0; day < g.NumDays(); day++ {
		date := g.DayTime(day).Format("2006-01-02")
		f, err := os.Create(filepath.Join(dir, "dns-"+date+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		w := logs.NewDNSWriter(f)
		for _, r := range g.Day(day) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	p := pipeline.NewLANL(pipeline.LANLConfig{})
	reports, err := RunDNSDir(dir, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Snapshot == nil || rep.Stats.Records == 0 {
			t.Errorf("empty report for %v", rep.Day)
		}
	}
}

func TestDiscoverOrdering(t *testing.T) {
	dir := t.TempDir()
	for _, date := range []string{"2014-01-03", "2014-01-01", "2014-01-02"} {
		if err := os.WriteFile(filepath.Join(dir, "proxy-"+date+".tsv"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "leases-"+date+".json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	days, err := DiscoverEnterprise(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 3 {
		t.Fatalf("days = %d", len(days))
	}
	want := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, d := range days {
		if !d.Date.Equal(want.AddDate(0, 0, i)) {
			t.Errorf("day %d = %v", i, d.Date)
		}
	}
}

func TestDiscoverErrors(t *testing.T) {
	dir := t.TempDir()
	// Proxy file without its lease file.
	if err := os.WriteFile(filepath.Join(dir, "proxy-2014-01-01.tsv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverEnterprise(dir); err == nil {
		t.Error("missing lease file must error")
	}
	// Malformed date.
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "proxy-notadate.tsv"), nil, 0o644)
	if _, err := DiscoverEnterprise(dir2); err == nil {
		t.Error("malformed date must error")
	}
	// Empty directory.
	if _, err := RunEnterpriseDir(t.TempDir(), nil, 0); err == nil {
		t.Error("empty dir must error")
	}
	if _, err := RunDNSDir(t.TempDir(), nil, 0); err == nil {
		t.Error("empty dir must error")
	}
}

func TestLoadProxyDayErrors(t *testing.T) {
	dir := t.TempDir()
	proxy := filepath.Join(dir, "proxy-2014-01-01.tsv")
	lease := filepath.Join(dir, "leases-2014-01-01.json")
	os.WriteFile(proxy, []byte("garbage line\n"), 0o644)
	os.WriteFile(lease, []byte("{}"), 0o644)
	d := Day{Date: time.Now(), ProxyPath: proxy, LeasePath: lease}
	if _, _, err := LoadProxyDay(d); err == nil {
		t.Error("garbage TSV must error")
	}
	os.WriteFile(proxy, nil, 0o644)
	os.WriteFile(lease, []byte("not json"), 0o644)
	if _, _, err := LoadProxyDay(d); err == nil {
		t.Error("garbage lease JSON must error")
	}
	os.WriteFile(lease, []byte(`{"not-an-ip":"h"}`), 0o644)
	if _, _, err := LoadProxyDay(d); err == nil {
		t.Error("bad lease IP must error")
	}
}
