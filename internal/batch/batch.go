// Package batch runs the pipelines against on-disk daily log batches — the
// deployment mode of the paper's production system, which ingested the
// previous day's proxy logs every day (§VI). Datasets on disk follow the
// layout cmd/datagen writes: one TSV file per day plus, for enterprise
// data, one JSON lease map per day.
package batch

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/logs"
	"repro/internal/pipeline"
)

// Day is one on-disk daily batch.
type Day struct {
	Date      time.Time
	ProxyPath string
	LeasePath string
	DNSPath   string
}

// DiscoverEnterprise scans a directory for proxy-YYYY-MM-DD.tsv and
// leases-YYYY-MM-DD.json pairs and returns them in date order.
func DiscoverEnterprise(dir string) ([]Day, error) {
	proxies, err := filepath.Glob(filepath.Join(dir, "proxy-*.tsv"))
	if err != nil {
		return nil, err
	}
	days := make([]Day, 0, len(proxies))
	for _, p := range proxies {
		date, err := dateFromName(filepath.Base(p), "proxy-")
		if err != nil {
			return nil, err
		}
		lease := filepath.Join(dir, "leases-"+date.Format("2006-01-02")+".json")
		if _, err := os.Stat(lease); err != nil {
			return nil, fmt.Errorf("batch: day %s has no lease file: %w", date.Format("2006-01-02"), err)
		}
		days = append(days, Day{Date: date, ProxyPath: p, LeasePath: lease})
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Date.Before(days[j].Date) })
	return days, nil
}

// DiscoverDNS scans a directory for dns-YYYY-MM-DD.tsv files.
func DiscoverDNS(dir string) ([]Day, error) {
	files, err := filepath.Glob(filepath.Join(dir, "dns-*.tsv"))
	if err != nil {
		return nil, err
	}
	days := make([]Day, 0, len(files))
	for _, p := range files {
		date, err := dateFromName(filepath.Base(p), "dns-")
		if err != nil {
			return nil, err
		}
		days = append(days, Day{Date: date, DNSPath: p})
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Date.Before(days[j].Date) })
	return days, nil
}

func dateFromName(name, prefix string) (time.Time, error) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".tsv")
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("batch: file %s: %w", name, err)
	}
	return t, nil
}

// LoadProxyDay reads one day's proxy records and lease map. The record
// slice is freshly allocated (callers keep it across days); the decoder
// comes from the package pool so consecutive days share warm interning
// tables.
func LoadProxyDay(d Day) ([]logs.ProxyRecord, map[netip.Addr]string, error) {
	dec := logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(dec)
	return LoadProxyDayInto(d, dec, nil)
}

// LoadProxyDayInto reads one day's proxy records through the caller's
// decoder, appending into recs (which may be nil), and returns the grown
// slice plus the day's lease map. It materialises the day, which is what the
// batch runner and the equivalence tests want; stream.ReplayDir decodes the
// same file a chunk at a time through logs.ProxyReader instead.
func LoadProxyDayInto(d Day, dec *logs.ProxyDecoder, recs []logs.ProxyRecord) ([]logs.ProxyRecord, map[netip.Addr]string, error) {
	f, err := os.Open(d.ProxyPath)
	if err != nil {
		return recs, nil, err
	}
	defer f.Close()
	if cap(recs) == 0 {
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			recs = make([]logs.ProxyRecord, 0, fi.Size()/logs.ApproxProxyLineBytes+1)
		}
	}
	recs, err = logs.ReadProxyBatch(f, dec, recs)
	if err != nil {
		return recs, nil, fmt.Errorf("batch: %s: %w", d.ProxyPath, err)
	}
	leases, err := LoadLeases(d)
	return recs, leases, err
}

// LoadLeases reads one day's DHCP lease map (address → hostname).
func LoadLeases(d Day) (map[netip.Addr]string, error) {
	data, err := os.ReadFile(d.LeasePath)
	if err != nil {
		return nil, err
	}
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("batch: %s: %w", d.LeasePath, err)
	}
	leases := make(map[netip.Addr]string, len(raw))
	for ip, host := range raw {
		addr, err := netip.ParseAddr(ip)
		if err != nil {
			return nil, fmt.Errorf("batch: %s: lease %q: %w", d.LeasePath, ip, err)
		}
		leases[addr] = host
	}
	return leases, nil
}

// LoadDNSDay reads one day's DNS records.
func LoadDNSDay(d Day) ([]logs.DNSRecord, error) {
	f, err := os.Open(d.DNSPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []logs.DNSRecord
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		recs = make([]logs.DNSRecord, 0, fi.Size()/logs.ApproxProxyLineBytes+1)
	}
	if err := logs.ReadDNS(f, func(r logs.DNSRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("batch: %s: %w", d.DNSPath, err)
	}
	return recs, nil
}

// RunEnterpriseDir drives an enterprise pipeline over an on-disk dataset:
// the first trainingDays batches feed profiling, the remainder run through
// calibration and daily detection. Reports are returned in day order.
func RunEnterpriseDir(dir string, p *pipeline.Enterprise, trainingDays int) ([]pipeline.EnterpriseDayReport, error) {
	days, err := DiscoverEnterprise(dir)
	if err != nil {
		return nil, err
	}
	if len(days) == 0 {
		return nil, fmt.Errorf("batch: no enterprise batches in %s", dir)
	}
	var reports []pipeline.EnterpriseDayReport
	for i, d := range days {
		recs, leases, err := LoadProxyDay(d)
		if err != nil {
			return nil, err
		}
		if i < trainingDays {
			p.Train(d.Date, recs, leases)
			continue
		}
		reports = append(reports, p.Process(d.Date, recs, leases))
	}
	return reports, nil
}

// RunDNSDir drives a LANL-style pipeline over an on-disk DNS dataset; days
// before the training horizon feed profiling, later days run detection in
// no-hint mode (hints are not part of the on-disk format).
func RunDNSDir(dir string, p *pipeline.LANL, trainingDays int) ([]pipeline.LANLDayReport, error) {
	days, err := DiscoverDNS(dir)
	if err != nil {
		return nil, err
	}
	if len(days) == 0 {
		return nil, fmt.Errorf("batch: no DNS batches in %s", dir)
	}
	var reports []pipeline.LANLDayReport
	for i, d := range days {
		recs, err := LoadDNSDay(d)
		if err != nil {
			return nil, err
		}
		if i < trainingDays {
			p.Train(d.Date, recs)
			continue
		}
		reports = append(reports, p.Process(d.Date, recs, nil))
	}
	return reports, nil
}
