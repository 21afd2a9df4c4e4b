package alert

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// SinkConfig declares one named sink.
type SinkConfig struct {
	Name string `json:"name"`
	// Type is "webhook", "syslog", "file" or "stdout".
	Type string `json:"type"`
	// URL is the webhook endpoint.
	URL string `json:"url,omitempty"`
	// Network ("tcp"/"udp", default udp) and Address (host:port) configure
	// the syslog transport.
	Network string `json:"network,omitempty"`
	Address string `json:"address,omitempty"`
	// Path is the NDJSON output file.
	Path string `json:"path,omitempty"`
}

// Config is the alert subsystem's on-disk configuration (the -alert-config
// file), a JSON object.
type Config struct {
	// SuppressMinutes is the dedup window: a second event with the same
	// (kind, domain, hosts, message) within the window is suppressed.
	// Default 10; negative disables suppression.
	SuppressMinutes float64 `json:"suppressMinutes,omitempty"`
	// QueueSize bounds each sink's queue (default 256).
	QueueSize int `json:"queueSize,omitempty"`
	// MaxRetries bounds delivery attempts per event beyond the first
	// (default 4; negative disables retries).
	MaxRetries int `json:"maxRetries,omitempty"`
	// RetryBackoffMillis is the first retry delay; it doubles per attempt,
	// capped at 5s (default 100).
	RetryBackoffMillis int `json:"retryBackoffMillis,omitempty"`
	// CloseTimeoutMillis bounds how long Close waits for queues to drain
	// (default 2000).
	CloseTimeoutMillis int `json:"closeTimeoutMillis,omitempty"`

	Sinks []SinkConfig `json:"sinks"`
	Rules []Rule       `json:"rules,omitempty"`
}

func (c *Config) setDefaults() {
	if c.SuppressMinutes == 0 {
		c.SuppressMinutes = 10
	}
	if c.SuppressMinutes < 0 {
		c.SuppressMinutes = 0
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoffMillis <= 0 {
		c.RetryBackoffMillis = 100
	}
	if c.CloseTimeoutMillis <= 0 {
		c.CloseTimeoutMillis = 2000
	}
}

// errNotJSON refuses a config that is not a JSON object, or that is named
// .toml: a file written for the TOML subset earlier builds also read.
var errNotJSON = errors.New("alert: config must be a JSON object: the TOML config subset was removed, convert the file to JSON")

// ParseConfig reads a JSON configuration document: one object, no unknown
// fields, nothing after it but whitespace.
func ParseConfig(data []byte) (Config, error) {
	if trimmed := bytes.TrimSpace(data); len(trimmed) == 0 || trimmed[0] != '{' {
		return Config{}, errNotJSON
	}
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("alert: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, errors.New("alert: parse config: content after the JSON object")
	}
	return cfg, nil
}

// LoadConfig reads and parses the JSON file at path. A .toml path is refused
// unread.
func LoadConfig(path string) (Config, error) {
	if strings.HasSuffix(path, ".toml") {
		return Config{}, errNotJSON
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("alert: read config: %w", err)
	}
	return ParseConfig(data)
}

// BuildSinks constructs the configured sinks, keyed by name.
func (c Config) BuildSinks() (map[string]Sink, error) {
	sinks := make(map[string]Sink, len(c.Sinks))
	for i, sc := range c.Sinks {
		if sc.Name == "" {
			return nil, fmt.Errorf("alert: sink %d has no name", i)
		}
		if _, dup := sinks[sc.Name]; dup {
			return nil, fmt.Errorf("alert: duplicate sink name %q", sc.Name)
		}
		var (
			s   Sink
			err error
		)
		switch sc.Type {
		case "webhook":
			if sc.URL == "" {
				return nil, fmt.Errorf("alert: webhook sink %q has no url", sc.Name)
			}
			s = NewWebhookSink(sc.URL)
		case "syslog":
			s, err = NewSyslogSink(sc.Network, sc.Address)
		case "file":
			if sc.Path == "" {
				return nil, fmt.Errorf("alert: file sink %q has no path", sc.Name)
			}
			s, err = NewFileSink(sc.Path)
		case "stdout":
			s = NewWriterSink(os.Stdout)
		default:
			return nil, fmt.Errorf("alert: sink %q has unknown type %q", sc.Name, sc.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("alert: sink %q: %w", sc.Name, err)
		}
		sinks[sc.Name] = s
	}
	return sinks, nil
}

// NewDispatcherFromConfig builds the sinks and the dispatcher in one step.
func NewDispatcherFromConfig(cfg Config) (*Dispatcher, error) {
	sinks, err := cfg.BuildSinks()
	if err != nil {
		return nil, err
	}
	return NewDispatcher(cfg, sinks)
}
