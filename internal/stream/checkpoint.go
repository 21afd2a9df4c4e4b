package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/whois"
)

// A checkpoint makes the daemon restartable mid-day: it captures the
// long-lived behavioural history (via profile's persist machinery), the
// pipeline's calibration progress, the completed-day SOC reports, and the
// open day's state. A restored engine resumes exactly where the checkpoint
// was taken — the golden equivalence tests drive a dataset through
// checkpoint/restore cycles split mid-day (one requested mid-close) and
// still match batch byte-for-byte. A checkpoint always describes a settled
// close: Checkpoint waits out an in-flight one.
//
// The format is one line-delimited JSON stream with self-delimiting
// sections, shared through a single encoder/decoder so multi-million entry
// histories never materialize as one value:
//
//	header       checkpointHeader (carries all section counts)
//	history      profile.History.SaveTo
//	calibration  pipeline.CalibrationState
//	dailies      header.Dailies × checkpointDaily
//	openday      (iff header.Day != "") checkpointOpenDay +
//	             profile.IncrementalBuilder.SaveTo + markerDomains ×
//	             checkpointDomain
//
// The open day is serialized as one incremental-builder section holding
// every shard's partial — domain-keyed aggregation, so checkpoint size and restore time are
// proportional to the day's distinct domains plus the visits toward domains
// new to the history (known domains are a marker and a count; see
// shard.applyRun), and no arrival-order raw visit buffer needs to exist
// anywhere in the engine. This is format version 2; version 1 (raw-item
// replay) is refused with a pointer to the last build that read it.
//
// Shard count is deliberately not part of the state: builder frames are
// domain-keyed and re-partitioned with the restoring engine's own routing, so
// a checkpoint taken on an 8-core box restores onto 2 cores. A file written
// by an engine that sharded by (host, domain) pair (up to PR 20) is the same
// format; one of its domains may carry both profiled hosts and a known count,
// which restores onto the domain's one shard and classifies as historical.
//
// The LiveAutomated early-warning view is not in the file: it is derived on
// demand from the builder's timestamps, so it survives a restart from any v2
// checkpoint. Builds up to PR 15 kept a second, pre-binned copy of those
// timestamps and wrote it after the marker domains as livePairs records;
// Restore still reads such a section past (see checkpointOpenDay.LivePairs).

const checkpointVersion = 2

type checkpointHeader struct {
	Version      int                       `json:"version"`
	Day          string                    `json:"day,omitempty"` // RFC3339; "" = no open day
	Seq          uint64                    `json:"seq"`
	DaysDone     int                       `json:"daysDone"`
	TrainingDays int                       `json:"trainingDays"`
	DayRecords   uint64                    `json:"dayRecords"`
	DayDroppedIP uint64                    `json:"dayDroppedIP"`
	TotalRecords uint64                    `json:"totalRecords"`
	Pipeline     pipeline.EnterpriseConfig `json:"pipeline"`
	Leases       map[string]string         `json:"leases,omitempty"`
	Dates        []string                  `json:"dates,omitempty"`
	Dailies      int                       `json:"dailies"`
	// Closing is read, never written: builds up to PR 24 checkpointed during
	// a day-close, named the closing day here and carried its classified
	// snapshot as a section of its own. Restore refuses such a file.
	Closing string `json:"closing,omitempty"`
}

type checkpointDaily struct {
	Date  string       `json:"date"`
	Daily report.Daily `json:"daily"`
}

// checkpointOpenDay is the open-day section header; the builder section of
// all shards' partials follows, then MarkerDomains single-domain records
// (domains seen only through unresolved, lease-less records — they count
// toward the day's distinct-domain statistic but hold no visit state).
type checkpointOpenDay struct {
	MarkerDomains int `json:"markerDomains"`
	Unresolved    int `json:"unresolved"`
	// LivePairs is read, never written: a file from a build up to PR 15
	// carries that many per-pair analyzer records after the marker domains.
	// Restore validates the count and skips the records.
	LivePairs int `json:"livePairs,omitempty"`
}

type checkpointDomain struct {
	D string `json:"d"`
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// headerLocked assembles the checkpoint header from the engine's current
// state. Caller holds mu exclusively.
func (e *Engine) headerLocked() checkpointHeader {
	hdr := checkpointHeader{
		Version:      checkpointVersion,
		Seq:          e.seq.Load(),
		DaysDone:     e.daysDone,
		TrainingDays: e.cfg.TrainingDays,
		DayRecords:   e.dayRecords.Load(),
		DayDroppedIP: e.dayDroppedIP.Load(),
		TotalRecords: e.totalRecords.Load(),
		Pipeline:     e.pipe.Config(),
		Dates:        append([]string(nil), e.dates...),
		Dailies:      0,
	}
	if !e.day.IsZero() {
		hdr.Day = e.day.Format(time.RFC3339)
	}
	if len(e.leases) > 0 {
		hdr.Leases = make(map[string]string, len(e.leases))
		for ip, host := range e.leases {
			hdr.Leases[ip.String()] = host
		}
	}
	return hdr
}

// dailiesLocked captures the completed-day SOC reports in processing
// order. The Daily values are immutable once published, so the copies stay
// valid after the lock is released. Caller holds mu.
func (e *Engine) dailiesLocked() []checkpointDaily {
	out := make([]checkpointDaily, 0, len(e.dailies))
	for _, date := range e.dates {
		if d, ok := e.dailies[date]; ok {
			out = append(out, checkpointDaily{Date: date, Daily: d})
		}
	}
	return out
}

// Checkpoint streams the engine's full state to w. The engine is frozen
// only while the open day's builder state is cloned — the encode
// itself runs without the engine lock, so concurrent ingestion resumes
// after an O(resident state) pause rather than an O(encode + I/O) one.
//
// A day-close in flight is waited out first (the lock is released while
// waiting, so ingestion proceeds), so the file describes a settled close and
// never a day between the shards and the history.
func (e *Engine) Checkpoint(w io.Writer) error {
	var start time.Time
	var hdr checkpointHeader
	var dailies []checkpointDaily
	var cal pipeline.CalibrationState
	od, err := e.freezeOpenDay(func() {
		// The timer starts after the close wait, so LastCheckpointMillis
		// measures the checkpoint itself (clone + encode), not a pipeline run
		// it happened to queue behind.
		start = time.Now()
		hdr = e.headerLocked()
		dailies = e.dailiesLocked()
		hdr.Dailies = len(dailies)
		cal = e.pipe.ExportCalibration()
	})
	if err != nil {
		return err
	}
	defer e.commitGate.RUnlock()

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("stream: checkpoint header: %w", err)
	}
	if err := e.hist.SaveTo(enc); err != nil {
		return fmt.Errorf("stream: checkpoint history: %w", err)
	}
	if err := enc.Encode(cal); err != nil {
		return fmt.Errorf("stream: checkpoint calibration: %w", err)
	}
	for _, cd := range dailies {
		if err := enc.Encode(cd); err != nil {
			return fmt.Errorf("stream: checkpoint daily %s: %w", cd.Date, err)
		}
	}
	if hdr.Day != "" {
		if err := od.save(enc); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	e.lastCkptBytes.Store(cw.n)
	e.lastCkptMicros.Store(time.Since(start).Microseconds())
	return nil
}

// RestoreDeps supplies the runtime dependencies a restored pipeline needs —
// the hooks that are live behaviour rather than state. They must be
// equivalent to the ones the checkpointed pipeline ran with for resumed
// results to match.
type RestoreDeps struct {
	// Whois is the registration source.
	Whois *whois.Registry
	// Reported labels a domain at a time (e.g. intel.Oracle.Reported).
	Reported func(string, time.Time) bool
	// IOCs supplies the SOC IOC seed list.
	IOCs func() []string
	// Workers, when non-zero, overrides the checkpointed pipeline Workers
	// knob (1 forces the sequential day-close path). The knob is an
	// execution preference of the restoring host — an operator co-locating
	// the daemon may want fewer cores than the checkpointing host used —
	// not replayable state: reports are byte-identical for every value.
	// Zero keeps the checkpointed value.
	Workers int
}

// Restore rebuilds an engine from a checkpoint written by Checkpoint. The
// pipeline configuration travels inside the checkpoint; cfg parameterizes
// only the engine itself, and its TrainingDays is overridden from the
// checkpoint so the train/process split cannot drift across restarts.
func Restore(r io.Reader, cfg Config, deps RestoreDeps) (*Engine, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		if errors.Is(err, io.EOF) {
			// An empty file usually means a crash between creating and
			// writing the checkpoint; say so instead of a bare "EOF".
			return nil, errors.New("stream: restore: checkpoint file is empty or truncated")
		}
		return nil, fmt.Errorf("stream: restore header: %w", err)
	}
	switch hdr.Version {
	case checkpointVersion:
	case 1:
		return nil, errors.New("stream: unsupported checkpoint version 1 (format v1 was last readable at PR 13; restore and re-checkpoint with that build)")
	default:
		return nil, fmt.Errorf("stream: unsupported checkpoint version %d", hdr.Version)
	}
	if hdr.Closing != "" {
		// Dropping the section would silently lose the day; refuse, as for v1.
		return nil, fmt.Errorf("stream: checkpoint was taken while day %s's close was in flight (closing-day sections were last readable at PR 24; restore with a build up to PR 24, let the close finish, and re-checkpoint)", hdr.Closing)
	}
	if hdr.Dailies < 0 {
		// A corrupt count would otherwise panic in make below.
		return nil, fmt.Errorf("stream: restore: corrupt header (dailies=%d)", hdr.Dailies)
	}
	hist, err := profile.LoadHistoryFrom(dec)
	if err != nil {
		return nil, fmt.Errorf("stream: restore history: %w", err)
	}
	var cal pipeline.CalibrationState
	if err := dec.Decode(&cal); err != nil {
		return nil, fmt.Errorf("stream: restore calibration: %w", err)
	}

	// Decode everything before starting any engine, so a truncated or
	// corrupt checkpoint cannot leak shard workers.
	var day time.Time
	if hdr.Day != "" {
		day, err = time.Parse(time.RFC3339, hdr.Day)
		if err != nil {
			return nil, fmt.Errorf("stream: restore day: %w", err)
		}
	}
	var leases map[netip.Addr]string
	if len(hdr.Leases) > 0 {
		leases = make(map[netip.Addr]string, len(hdr.Leases))
		for ip, host := range hdr.Leases {
			addr, err := netip.ParseAddr(ip)
			if err != nil {
				return nil, fmt.Errorf("stream: restore lease %q: %w", ip, err)
			}
			leases[addr] = host
		}
	}
	dailies := make(map[string]report.Daily, min(hdr.Dailies, 1<<16))
	for i := 0; i < hdr.Dailies; i++ {
		var cd checkpointDaily
		if err := dec.Decode(&cd); err != nil {
			return nil, fmt.Errorf("stream: restore daily %d: %w", i, err)
		}
		dailies[cd.Date] = cd.Daily
	}

	// The open-day section.
	var openBuilder *profile.IncrementalBuilder
	var openMeta checkpointOpenDay
	var markerDomains []string
	if hdr.Day != "" {
		if err := dec.Decode(&openMeta); err != nil {
			return nil, fmt.Errorf("stream: restore open day: %w", err)
		}
		if openMeta.MarkerDomains < 0 || openMeta.Unresolved < 0 || openMeta.LivePairs < 0 {
			return nil, fmt.Errorf("stream: restore: corrupt open-day section (markerDomains=%d, unresolved=%d, livePairs=%d)",
				openMeta.MarkerDomains, openMeta.Unresolved, openMeta.LivePairs)
		}
		openBuilder, err = profile.LoadBuilderFrom(dec)
		if err != nil {
			return nil, fmt.Errorf("stream: restore builder: %w", err)
		}
		if maxSeq := openBuilder.MaxSeq(); maxSeq > hdr.Seq {
			return nil, fmt.Errorf("stream: restore: builder seq %d beyond checkpoint watermark %d", maxSeq, hdr.Seq)
		}
		// A known-visit count asserts "the history held this domain when the
		// visits arrived", and the history only grows — so the history
		// section of the same file must hold it too. Accepting the count on
		// any other domain would let it close as new with those visits' hosts
		// missing from its profile.
		for _, d := range openBuilder.DomainNames() {
			if n := openBuilder.KnownVisits(d); n > 0 && !hist.SeenDomain(d) {
				return nil, fmt.Errorf("stream: restore: builder domain %q carries %d known visits but is absent from the checkpointed history", d, n)
			}
		}
		markerDomains = make([]string, 0, min(openMeta.MarkerDomains, 1<<16))
		for i := 0; i < openMeta.MarkerDomains; i++ {
			var cd checkpointDomain
			if err := dec.Decode(&cd); err != nil {
				return nil, fmt.Errorf("stream: restore marker domain %d: %w", i, err)
			}
			markerDomains = append(markerDomains, cd.D)
		}
		// A parent-format livePairs section: derived state this build
		// recomputes from the builder, so the records are read past. A short
		// section is still a truncated file.
		for i := 0; i < openMeta.LivePairs; i++ {
			var skip struct{}
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("stream: restore live pair %d: %w", i, err)
			}
		}
	}

	if deps.Workers != 0 {
		hdr.Pipeline.Workers = deps.Workers
	}
	pipe := pipeline.NewEnterpriseWithHistory(hdr.Pipeline, hist, deps.Whois, deps.Reported, deps.IOCs)
	if err := pipe.RestoreCalibration(cal); err != nil {
		return nil, err
	}

	cfg.TrainingDays = hdr.TrainingDays
	e := New(cfg, pipe)
	e.seq.Store(hdr.Seq)
	e.dayRecords.Store(hdr.DayRecords)
	e.dayDroppedIP.Store(hdr.DayDroppedIP)
	e.totalRecords.Store(hdr.TotalRecords)
	e.daysDone = hdr.DaysDone
	e.dates = append(e.dates, hdr.Dates...)
	e.day = day
	e.leases = leases
	for date, d := range dailies {
		e.dailies[date] = d
	}

	if openBuilder != nil {
		// Re-partition the domain-keyed builder and the marker domains across
		// however many shards this engine runs, with the routing the ingest
		// path uses: a domain's restored state and its future visits then
		// meet on one shard, and the shards stay domain-disjoint, which the
		// close (profile.ClassifyDisjoint) and markerOnly rely on.
		bparts := openBuilder.Split(len(e.shards), e.shardIndex)
		mparts := make([][]string, len(e.shards))
		for _, d := range markerDomains {
			si := e.shardIndex(d)
			mparts[si] = append(mparts[si], d)
		}
		e.mu.Lock()
		e.quiesce(func(i int, s *shard) {
			s.part = bparts[i]
			for _, d := range bparts[i].DomainNames() {
				s.knownVisits += bparts[i].KnownVisits(d)
			}
			for _, d := range mparts[i] {
				s.markers[d] = struct{}{}
			}
			if i == 0 {
				s.unresolved = openMeta.Unresolved // only ever read summed
			}
		})
		e.mu.Unlock()
	}
	return e, nil
}
