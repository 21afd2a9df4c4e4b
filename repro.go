// Package repro is a from-scratch Go reproduction of "Detection of
// Early-Stage Enterprise Infection by Mining Large-Scale Log Data"
// (Oprea, Li, Yen, Chin, Alrwais — DSN 2015).
//
// The library detects early-stage malware infections in enterprise log
// data (DNS or web-proxy) by combining two ideas from the paper:
//
//   - A detector of C&C communication that finds rare external domains
//     receiving automated (periodic) connections via dynamic histogram
//     binning and Jeffrey divergence, then scores them with a linear
//     regression over enterprise-specific features (referer absence,
//     user-agent rarity, domain age and registration validity, domain
//     connectivity). It can flag a C&C domain contacted by a single host.
//
//   - A belief propagation algorithm on the bipartite host↔domain graph
//     that, starting from seeds (SOC-confirmed hosts/domains, IOCs, or the
//     C&C detector's output), iteratively expands a community of related
//     malicious domains and compromised hosts using domain similarity
//     (co-visitation timing, IP-space proximity, shared hosts).
//
// # Quick start
//
// Build a pipeline, train it on a bootstrap month, then process each
// operation day:
//
//	p := repro.NewEnterprisePipeline(repro.EnterprisePipelineConfig{},
//	    registry, oracle.Reported, oracle.IOCs)
//	for day := range trainingDays { p.Train(date, records, leases) }
//	report := p.Process(date, records, leases)
//	for _, d := range report.NoHintDomains() { ... }
//
// Deployments that ingest a live feed instead of daily batches use the
// streaming engine, which produces byte-identical reports:
//
//	e := repro.NewStreamEngine(repro.StreamConfig{TrainingDays: 31}, p)
//	e.BeginDay(date, leases)
//	for batch := range feed { e.IngestBatch(batch) }
//	e.Flush() // or let the next BeginDay roll the day over
//
// cmd/reprod wraps the engine in a long-running daemon with an HTTP
// ingestion API, checkpoint/restore, and dataset replay.
//
// The examples/ directory contains runnable end-to-end programs, including
// a full solution of the LANL APT-discovery challenge, and the cmd/
// binaries regenerate every table and figure of the paper (see
// EXPERIMENTS.md).
//
// Because the paper's datasets (anonymized LANL DNS logs and 38 TB of
// enterprise web-proxy logs) are not available, the repro/internal/gen
// generators synthesize statistically faithful equivalents; DESIGN.md
// documents each substitution.
package repro

import (
	"io"
	"net/netip"
	"time"

	"repro/internal/alert"
	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/ccdetect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gen"
	"repro/internal/histogram"
	"repro/internal/intel"
	"repro/internal/logs"
	"repro/internal/normalize"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/regression"
	"repro/internal/report"
	"repro/internal/scoring"
	"repro/internal/stream"
	"repro/internal/whois"
)

// ---- Log records and normalization ----

// Log record model (see internal/logs).
type (
	// DNSRecord is one DNS query/response in the LANL schema.
	DNSRecord = logs.DNSRecord
	// ProxyRecord is one HTTP(S) connection in the AC web-proxy schema.
	ProxyRecord = logs.ProxyRecord
	// Visit is the dataset-independent reduced record both pipelines use.
	Visit = logs.Visit
	// FlowRecord is one NetFlow-style flow summary.
	FlowRecord = logs.FlowRecord
	// RecordType is a DNS record type.
	RecordType = logs.RecordType
)

// DNS record types.
const (
	TypeA     = logs.TypeA
	TypeAAAA  = logs.TypeAAAA
	TypeTXT   = logs.TypeTXT
	TypeMX    = logs.TypeMX
	TypeCNAME = logs.TypeCNAME
	TypePTR   = logs.TypePTR
)

// TSV codec for on-disk datasets (the cmd/datagen layout).
type (
	// ProxyWriter streams proxy records as TSV.
	ProxyWriter = logs.ProxyWriter
)

// NewProxyWriter returns a buffered TSV writer for proxy records.
func NewProxyWriter(w io.Writer) *ProxyWriter { return logs.NewProxyWriter(w) }

// FoldDomain folds a domain name to its last n labels (news.nbc.com -> nbc.com).
func FoldDomain(domain string, n int) string { return logs.FoldDomain(domain, n) }

// ReduceDNS applies the paper's DNS normalization and reduction (§IV-A).
func ReduceDNS(recs []DNSRecord) ([]Visit, normalize.DNSStats) {
	return normalize.ReduceDNS(recs)
}

// ReduceProxy applies the paper's web-proxy normalization (§IV-A): UTC
// conversion, DHCP/VPN lease resolution, IP-literal filtering, second-level
// folding.
func ReduceProxy(recs []ProxyRecord, leases map[netip.Addr]string) ([]Visit, normalize.ProxyStats) {
	return normalize.ReduceProxy(recs, leases)
}

// ReduceFlows applies the NetFlow reduction: web-port flows to external
// destinations, sources resolved through the lease map. The destination IP
// plays the role of the folded domain, so the detectors run unchanged on
// flow data (§II-C's generality claim).
func ReduceFlows(recs []FlowRecord, leases map[netip.Addr]string) ([]Visit, normalize.FlowStats) {
	return normalize.ReduceFlows(recs, leases)
}

// ---- Profiling ----

type (
	// History is the incrementally updated profile of destinations and
	// user-agent strings.
	History = profile.History
	// Snapshot is one day's reduced view: rare destinations plus the
	// indexes belief propagation walks.
	Snapshot = profile.Snapshot
	// DomainActivity aggregates one rare domain's daily traffic.
	DomainActivity = profile.DomainActivity
)

// NewHistory returns an empty behavioural history.
func NewHistory() *History { return profile.NewHistory() }

// LoadHistory restores a history previously written with History.Save,
// letting deployments persist profiles between daily batches.
func LoadHistory(r io.Reader) (*History, error) { return profile.LoadHistory(r) }

// NewSnapshot classifies a day's visits against the history; rare domains
// are new (never in the history) and unpopular (fewer than
// unpopularThreshold distinct hosts).
func NewSnapshot(day time.Time, visits []Visit, hist *History, unpopularThreshold int) *Snapshot {
	return profile.NewSnapshot(day, visits, hist, unpopularThreshold)
}

// NewSnapshotParallel is NewSnapshot with the per-domain aggregation fanned
// over a worker pool (0 = GOMAXPROCS); the snapshot is identical to the
// sequential build for any worker count.
func NewSnapshotParallel(day time.Time, visits []Visit, hist *History, unpopularThreshold, workers int) *Snapshot {
	return profile.NewSnapshotParallel(day, visits, hist, unpopularThreshold, workers)
}

// IncrementalBuilder accumulates a partition of a day's visits as they
// arrive (keyed by arrival sequence number), deferring classification to
// the day-close merge — the incremental snapshot maintenance the streaming
// engine runs on its shards.
type IncrementalBuilder = profile.IncrementalBuilder

// NewIncrementalBuilder returns an empty partition builder.
func NewIncrementalBuilder() *IncrementalBuilder { return profile.NewIncrementalBuilder() }

// MergeSnapshotParallel assembles the day snapshot from partition builders
// whose domain sets may overlap (disjoint (seq, visit) sets); the result is
// identical to NewSnapshot over the same visits in seq order.
func MergeSnapshotParallel(day time.Time, parts []*IncrementalBuilder, hist *History, unpopularThreshold, workers int) *Snapshot {
	return profile.MergeSnapshotParallel(day, parts, hist, unpopularThreshold, workers)
}

// ---- Periodicity detection ----

type (
	// HistogramConfig parameterizes the dynamic-histogram detector
	// (bin width W and Jeffrey threshold JT).
	HistogramConfig = histogram.Config
	// PeriodicityVerdict is the outcome of analyzing one connection series.
	PeriodicityVerdict = histogram.Verdict
)

// DefaultHistogramConfig returns the paper's operating point (W=10s, JT=0.06).
func DefaultHistogramConfig() HistogramConfig { return histogram.DefaultConfig() }

// AnalyzeTimes labels a series of connection timestamps automated or not.
func AnalyzeTimes(times []time.Time, cfg HistogramConfig) PeriodicityVerdict {
	return histogram.AnalyzeTimes(times, cfg)
}

// ---- C&C detection and similarity scoring ----

type (
	// CCDetector is the enterprise C&C detector (§IV-C).
	CCDetector = ccdetect.Detector
	// LANLCCDetector is the two-host DNS heuristic (§V-B).
	LANLCCDetector = ccdetect.LANLDetector
	// AutomatedDomain is a rare domain with automated connections.
	AutomatedDomain = ccdetect.AutomatedDomain
	// FeatureExtractor computes the C&C and similarity features.
	FeatureExtractor = features.Extractor
	// RegressionScorer is the trained similarity scorer (§IV-D).
	RegressionScorer = scoring.RegressionScorer
	// AdditiveScorer is the LANL similarity scorer (§V-B).
	AdditiveScorer = scoring.AdditiveScorer
	// RegressionModel is a fitted linear model with significance stats.
	RegressionModel = regression.Model
	// BaselineDetector is a comparison periodicity detector.
	BaselineDetector = baseline.Detector
)

// NewCCDetector returns a C&C detector with the paper's defaults
// (W=10s, JT=0.06, Tc=0.40).
func NewCCDetector(x *FeatureExtractor) *CCDetector { return ccdetect.NewDetector(x) }

// NewLANLCCDetector returns the §V-B heuristic with its defaults.
func NewLANLCCDetector() *LANLCCDetector { return ccdetect.NewLANLDetector() }

// ---- Belief propagation ----

type (
	// BPConfig parameterizes a belief propagation run (Ts, max iterations).
	BPConfig = core.Config
	// BPResult is the outcome: ordered detections plus compromised hosts.
	BPResult = core.Result
	// Detection is one labeled malicious domain with provenance.
	Detection = core.Detection
)

// BeliefPropagation runs Algorithm 1 against a day snapshot from the given
// seed hosts and domains.
func BeliefPropagation(s *Snapshot, seedHosts, seedDomains []string,
	cc core.CCDetector, sim core.SimilarityScorer, cfg BPConfig) *BPResult {
	return core.BeliefPropagation(s, seedHosts, seedDomains, cc, sim, cfg)
}

// ---- Pipelines (Figure 1) ----

type (
	// LANLDayReport is one processed day.
	LANLDayReport = pipeline.LANLDayReport
	// EnterprisePipeline is the web-proxy pipeline of §VI.
	EnterprisePipeline = pipeline.Enterprise
	// EnterprisePipelineConfig parameterizes it.
	EnterprisePipelineConfig = pipeline.EnterpriseConfig
	// EnterpriseDayReport is one processed day.
	EnterpriseDayReport = pipeline.EnterpriseDayReport
)

// NewEnterprisePipeline returns a web-proxy pipeline. reported labels a
// domain at a time (e.g. intel.Oracle.Reported) and iocs supplies the
// SOC's IOC seed list; either may be nil to disable the respective mode.
func NewEnterprisePipeline(cfg EnterprisePipelineConfig, reg *WHOISRegistry,
	reported func(string, time.Time) bool, iocs func() []string) *EnterprisePipeline {
	return pipeline.NewEnterprise(cfg, reg, reported, iocs)
}

// ---- Simulated externals (WHOIS, intelligence, datasets) ----

type (
	// WHOISRegistry is the simulated registration database.
	WHOISRegistry = whois.Registry
	// WHOISRecord is one registration entry.
	WHOISRecord = whois.Record
	// IntelOracle is the simulated VirusTotal + SOC IOC source.
	IntelOracle = intel.Oracle
	// IntelReport is the oracle's knowledge about one domain.
	IntelReport = intel.Report
	// Verdict is a validation category (§VI-B).
	Verdict = intel.Verdict
)

// NewWHOISRegistry returns an empty registry.
func NewWHOISRegistry() *WHOISRegistry { return whois.NewRegistry() }

// NewIntelOracle returns an empty oracle.
func NewIntelOracle() *IntelOracle { return intel.NewOracle() }

type (
	// LANLGenerator synthesizes the LANL-style DNS dataset with its 20
	// challenge campaigns.
	LANLGenerator = gen.LANL
	// LANLGeneratorConfig parameterizes it.
	LANLGeneratorConfig = gen.LANLConfig
	// EnterpriseGenerator synthesizes the AC-style web-proxy dataset.
	EnterpriseGenerator = gen.Enterprise
	// EnterpriseGeneratorConfig parameterizes it.
	EnterpriseGeneratorConfig = gen.EnterpriseConfig
	// Campaign is ground truth for one simulated infection campaign.
	Campaign = gen.Campaign
	// GroundTruth aggregates campaign ground truth.
	GroundTruth = gen.GroundTruth
	// OracleConfig controls how much ground truth the oracle knows.
	OracleConfig = gen.OracleConfig
)

// NewLANLGenerator builds the synthetic LANL dataset.
func NewLANLGenerator(cfg LANLGeneratorConfig) *LANLGenerator { return gen.NewLANL(cfg) }

// NewEnterpriseGenerator builds the synthetic enterprise dataset.
func NewEnterpriseGenerator(cfg EnterpriseGeneratorConfig) *EnterpriseGenerator {
	return gen.NewEnterprise(cfg)
}

// PopulateWHOIS loads generator ground truth into a WHOIS registry.
func PopulateWHOIS(reg *WHOISRegistry, truth *GroundTruth, extra map[string]gen.Registration, ref time.Time) {
	gen.PopulateWHOIS(reg, truth, extra, ref)
}

// PopulateOracle loads generator ground truth into an intelligence oracle.
func PopulateOracle(o *IntelOracle, truth *GroundTruth, cfg OracleConfig) {
	gen.PopulateOracle(o, truth, cfg)
}

// ---- Evaluation and reporting ----

type (
	// LANLRun is a complete LANL pipeline execution with per-day artifacts.
	LANLRun = eval.LANLRun
	// EnterpriseRun is a complete enterprise pipeline execution.
	EnterpriseRun = eval.EnterpriseRun
	// Scale selects experiment dataset sizes.
	Scale = eval.Scale
	// CommunityGraph renders detected communities as Graphviz DOT.
	CommunityGraph = dot.Graph
	// NodeKind styles community graph nodes by validation status.
	NodeKind = dot.NodeKind
)

// Community graph node kinds (the Figure 8 legend).
const (
	NodeSeed  = dot.KindSeed
	NodeIntel = dot.KindIntel
	NodeSOC   = dot.KindSOC
	NodeNew   = dot.KindNew
	NodeHost  = dot.KindHost
)

// Experiment scales.
const (
	ScaleSmall = eval.ScaleSmall
	ScaleFull  = eval.ScaleFull
)

// RunLANLChallenge trains on the synthetic LANL profiling month and solves
// all 20 challenge campaigns (Tables I-III).
func RunLANLChallenge(scale Scale, seed int64) *LANLRun { return eval.RunLANL(scale, seed) }

// RunEnterprise trains, calibrates and operates the enterprise pipeline on
// a synthetic two-month dataset (Figures 5-8).
func RunEnterprise(scale Scale, seed int64) *EnterpriseRun {
	return eval.RunEnterprise(scale, seed)
}

// NewCommunityGraph returns an empty community graph for DOT rendering.
func NewCommunityGraph(name string) *CommunityGraph { return dot.NewGraph(name) }

// ---- Detection clustering (§VI-C/D) ----

type (
	// Cluster is a campaign-shaped group of detected domains.
	Cluster = cluster.Cluster
	// ClusterDomainInfo is the per-domain evidence clustering consumes.
	ClusterDomainInfo = cluster.DomainInfo
	// ClusterKind discriminates URL-pattern, DGA and subnet clusters.
	ClusterKind = cluster.Kind
)

// Cluster kinds.
const (
	ClusterURLPattern = cluster.KindURLPattern
	ClusterDGA        = cluster.KindDGA
	ClusterSubnet     = cluster.KindSubnet
)

// FindClusters groups detected domains into campaign-shaped clusters by
// shared URL patterns, DGA name morphology, and /24 co-location.
func FindClusters(infos []ClusterDomainInfo) []Cluster { return cluster.Find(infos) }

// LooksDGA reports whether a domain label looks algorithmically generated.
func LooksDGA(name string) bool { return cluster.LooksDGA(name) }

// ---- SOC reporting and on-disk batches ----

// DailyReport is the SOC-facing JSON report of one operation day.
type DailyReport = report.Daily

// BuildDailyReport assembles the ordered suspicious-domain list (with
// beacon evidence, community hosts and campaign clusters) from a processed
// day.
func BuildDailyReport(rep EnterpriseDayReport) DailyReport { return report.Build(rep) }

// RunEnterpriseBatches drives a pipeline over on-disk daily batches; the
// first trainingDays batches feed profiling.
func RunEnterpriseBatches(dir string, p *EnterprisePipeline, trainingDays int) ([]EnterpriseDayReport, error) {
	return batch.RunEnterpriseDir(dir, p, trainingDays)
}

// ---- Streaming ingestion (internal/stream, cmd/reprod) ----

type (
	// StreamEngine is the sharded live-feed ingestion engine: records
	// stream in via IngestBatch, day rollover hands each completed day to
	// the batch pipeline path, and the results are byte-identical to batch
	// processing over the same records, however they were batched.
	StreamEngine = stream.Engine
	// StreamConfig parameterizes the engine (shards, queue depth, day
	// handling).
	StreamConfig = stream.Config
	// StreamStats is an engine-wide statistics snapshot.
	StreamStats = stream.Stats
	// StreamLivePair is one beaconing-looking (host, domain) pair of the
	// open day, visible before the day's verdict is final.
	StreamLivePair = stream.LivePair
	// StreamRestoreDeps supplies the live hooks a checkpoint-restored
	// engine needs (WHOIS, intelligence).
	StreamRestoreDeps = stream.RestoreDeps
)

// NewStreamEngine starts a streaming engine around a pipeline. The engine
// owns the pipeline from here on: it drives Train/Process at day rollover.
func NewStreamEngine(cfg StreamConfig, p *EnterprisePipeline) *StreamEngine {
	return stream.New(cfg, p)
}

// RestoreStreamEngine rebuilds an engine from a checkpoint written with
// StreamEngine.Checkpoint, resuming mid-day with full profile history.
func RestoreStreamEngine(r io.Reader, cfg StreamConfig, deps StreamRestoreDeps) (*StreamEngine, error) {
	return stream.Restore(r, cfg, deps)
}

// ---- Detection preview and outbound alerting (internal/alert) ----

type (
	// StreamPreviewReport is a provisional mid-day detection report from
	// StreamEngine.Preview: the report a rollover right now would publish,
	// computed from a frozen clone without closing the day.
	StreamPreviewReport = stream.PreviewReport
	// AlertEvent is one outbound alert (a detection or a health event).
	AlertEvent = alert.Event
	// AlertEventKind distinguishes confirmed/provisional/health events.
	AlertEventKind = alert.EventKind
	// AlertSeverity orders events for rule filtering.
	AlertSeverity = alert.Severity
	// AlertRule routes matching events to named sinks.
	AlertRule = alert.Rule
	// AlertSinkConfig declares one named sink in an alert config file.
	AlertSinkConfig = alert.SinkConfig
	// AlertConfig is the alert subsystem's configuration (-alert-config).
	AlertConfig = alert.Config
	// AlertDispatcher fans events out to sinks; Publish never blocks.
	AlertDispatcher = alert.Dispatcher
	// AlertStats snapshots the dispatcher's delivery counters.
	AlertStats = alert.Stats
)

// Alert event kinds and severities.
const (
	AlertConfirmed   = alert.KindConfirmed
	AlertProvisional = alert.KindProvisional
	AlertHealth      = alert.KindHealth
	AlertSevInfo     = alert.SevInfo
	AlertSevWarning  = alert.SevWarning
	AlertSevCritical = alert.SevCritical
)

// NewAlertDispatcherFromConfig builds the configured sinks and the
// dispatcher in one step.
func NewAlertDispatcherFromConfig(cfg AlertConfig) (*AlertDispatcher, error) {
	return alert.NewDispatcherFromConfig(cfg)
}

// ParseAlertConfig reads a JSON alert configuration document.
func ParseAlertConfig(data []byte) (AlertConfig, error) { return alert.ParseConfig(data) }

// AlertEventsFromDaily converts a daily report's suspicious-domain list
// into alert events of the given kind, in report order.
func AlertEventsFromDaily(d DailyReport, kind AlertEventKind, at time.Time) []AlertEvent {
	return alert.EventsFromDaily(d, kind, at)
}
