package alert

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleJSON = `{
  "suppressMinutes": 5,
  "queueSize": 64,
  "maxRetries": 3,
  "retryBackoffMillis": 50,
  "sinks": [
    {"name": "soc", "type": "webhook", "url": "http://soc.internal/hook"},
    {"name": "siem", "type": "syslog", "network": "tcp", "address": "siem:6514"},
    {"name": "audit", "type": "file", "path": "/var/log/alerts.ndjson"}
  ],
  "rules": [
    {"name": "page", "kinds": ["confirmed"], "minSeverity": "critical", "sinks": ["soc"]},
    {"name": "all", "minScore": 0.5, "domainPattern": "*.example", "sinks": ["siem", "audit"]}
  ]
}`

const sampleTOML = `# alert routing
suppress_minutes = 5
queue_size = 64
max_retries = 3
retry_backoff_millis = 50

[[sinks]]
name = "soc"           # the on-call webhook
type = "webhook"
url = "http://soc.internal/hook"

[[sinks]]
name = "siem"
type = "syslog"
network = "tcp"
address = "siem:6514"

[[sinks]]
name = "audit"
type = "file"
path = "/var/log/alerts.ndjson"

[[rules]]
name = "page"
kinds = ["confirmed"]
min_severity = "critical"
sinks = ["soc"]

[[rules]]
name = "all"
min_score = 0.5
domain_pattern = "*.example"
sinks = ["siem", "audit"]
`

// TestConfigFormatsAgree: the JSON form decodes every field the sample sets,
// severities and rule patterns included.
func TestConfigFormatsAgree(t *testing.T) {
	cfg, err := ParseConfig([]byte(sampleJSON))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if cfg.SuppressMinutes != 5 || cfg.QueueSize != 64 || cfg.MaxRetries != 3 || cfg.RetryBackoffMillis != 50 {
		t.Fatalf("top-level fields = %+v", cfg)
	}
	wantSinks := []SinkConfig{
		{Name: "soc", Type: "webhook", URL: "http://soc.internal/hook"},
		{Name: "siem", Type: "syslog", Network: "tcp", Address: "siem:6514"},
		{Name: "audit", Type: "file", Path: "/var/log/alerts.ndjson"},
	}
	if !reflect.DeepEqual(cfg.Sinks, wantSinks) {
		t.Fatalf("sinks = %+v, want %+v", cfg.Sinks, wantSinks)
	}
	if len(cfg.Rules) != 2 {
		t.Fatalf("parsed %d rules", len(cfg.Rules))
	}
	if r := cfg.Rules[0]; r.Name != "page" || !reflect.DeepEqual(r.Kinds, []EventKind{KindConfirmed}) ||
		r.MinSeverity != SevCritical || !reflect.DeepEqual(r.Sinks, []string{"soc"}) {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := cfg.Rules[1]; r.Name != "all" || r.MinScore != 0.5 || r.DomainPattern != "*.example" ||
		!reflect.DeepEqual(r.Sinks, []string{"siem", "audit"}) {
		t.Fatalf("rule 2 = %+v", r)
	}
}

func TestConfigRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"unknown json field": `{"sinks": [], "wat": 1}`,
		"bad severity":       `{"sinks": [], "rules": [{"minSeverity": "shrug", "sinks": ["x"]}]}`,
		"trailing object":    `{"sinks": []}{"sinks": [], "queueSize": 1}`,
		"trailing garbage":   `{"sinks": []} and more`,
	} {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %q", name, doc)
		}
	}
	// A document in the removed TOML subset is refused with a pointer to JSON.
	_, err := ParseConfig([]byte(sampleTOML))
	if err == nil || !strings.Contains(err.Error(), "TOML config subset was removed, convert the file to JSON") {
		t.Fatalf("TOML document: err = %v, want the removed-subset refusal", err)
	}
	path := filepath.Join(t.TempDir(), "alerts.toml")
	if err := os.WriteFile(path, []byte(sampleJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); !errors.Is(err, errNotJSON) {
		t.Fatalf("LoadConfig(.toml) err = %v, want the removed-subset refusal", err)
	}
}

func TestBuildSinksValidates(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nameless sink": {Sinks: []SinkConfig{{Type: "stdout"}}},
		"dup sink":      {Sinks: []SinkConfig{{Name: "a", Type: "stdout"}, {Name: "a", Type: "stdout"}}},
		"unknown type":  {Sinks: []SinkConfig{{Name: "a", Type: "carrier-pigeon"}}},
		"urlless hook":  {Sinks: []SinkConfig{{Name: "a", Type: "webhook"}}},
		"pathless file": {Sinks: []SinkConfig{{Name: "a", Type: "file"}}},
		"bad syslog":    {Sinks: []SinkConfig{{Name: "a", Type: "syslog", Network: "ipx"}}},
	} {
		if _, err := cfg.BuildSinks(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	sinks, err := Config{Sinks: []SinkConfig{
		{Name: "hook", Type: "webhook", URL: "http://x/h"},
		{Name: "out", Type: "stdout"},
	}}.BuildSinks()
	if err != nil || len(sinks) != 2 {
		t.Fatalf("valid sinks rejected: %v", err)
	}
}

// FuzzAlertConfig holds ParseConfig to its refusal contract: arbitrary
// bytes come back as a config or an error, never a panic, and anything that
// does not start with '{' (the TOML seeds among them) is refused.
func FuzzAlertConfig(f *testing.F) {
	f.Add([]byte(sampleJSON))
	f.Add([]byte(sampleTOML))
	f.Add([]byte(`queue_size = 1e309` + "\n"))
	f.Add([]byte(`name = "\x"` + "\n"))
	f.Add([]byte("[[rules]]\nsinks = [\"a\", 3, true]\n"))
	f.Add([]byte(`{"rules": [{"minSeverity": 99, "sinks": ["x"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if trimmed := bytes.TrimSpace(data); trimmed[0] != '{' {
			t.Fatalf("accepted a document that is not a JSON object: %q", data)
		}
		// A config that parses must validate without panicking too.
		for _, r := range cfg.Rules {
			_ = r.validate()
			_ = r.Matches(testEvent("probe.example"))
		}
		cfg.setDefaults()
	})
}
