package inputs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/logs"
	"repro/internal/normalize"
)

// The per-frame reader loop HandleConn ran before it became chunk-at-a-time,
// kept as the reference the differential tests hold the new loop to: a
// scanner whose next() reads on demand from a 4 KiB buffer, a by-value
// decode and append per frame, every counter bumped per frame. It shares no
// code with the listener beyond the pieces the rewrite left alone: the leaf
// parsers (parseOctetHeader, stripSyslogHeader, FlowDomain, the internal/logs
// decoders) and countingReader.

type refScanner struct {
	r       io.Reader
	framing Framing
	max     int
	buf     []byte
	start   int
	eof     bool
}

func (fs *refScanner) buffered() bool { return fs.start < len(fs.buf) }

func (fs *refScanner) next() ([]byte, error) {
	for {
		b := fs.buf[fs.start:]
		if fs.framing == FramingOctet {
			n, hdr, ok, complete := parseOctetHeader(b)
			if !ok {
				return nil, errBadOctetHeader
			}
			if complete {
				if n > fs.max {
					return nil, errFrameTooBig
				}
				if len(b) >= hdr+n {
					fs.start += hdr + n
					return b[hdr : hdr+n], nil
				}
			}
		} else {
			if i := bytes.IndexByte(b, '\n'); i >= 0 {
				if i > fs.max {
					return nil, errFrameTooBig
				}
				frame := b[:i]
				fs.start += i + 1
				if n := len(frame); n > 0 && frame[n-1] == '\r' {
					frame = frame[:n-1]
				}
				return frame, nil
			}
			if len(b) > fs.max {
				return nil, errFrameTooBig
			}
		}
		if fs.eof {
			if len(b) == 0 {
				return nil, io.EOF
			}
			return nil, errTornFrame
		}
		if err := fs.fill(); err != nil {
			return nil, err
		}
	}
}

func (fs *refScanner) fill() error {
	if fs.start > 0 && (fs.start == len(fs.buf) || len(fs.buf) == cap(fs.buf)) {
		n := copy(fs.buf, fs.buf[fs.start:])
		fs.buf = fs.buf[:n]
		fs.start = 0
	}
	if len(fs.buf) == cap(fs.buf) {
		grown := make([]byte, len(fs.buf), 2*cap(fs.buf))
		copy(grown, fs.buf)
		fs.buf = grown
	}
	n, err := fs.r.Read(fs.buf[len(fs.buf):cap(fs.buf)])
	fs.buf = fs.buf[:len(fs.buf)+n]
	if err == io.EOF {
		fs.eof = true
		return nil
	}
	return err
}

// refHandle runs one connection through the reference loop against an
// engine that accepts everything, and returns what it delivered, the
// counters it would have published and its terminal error.
func refHandle(r io.Reader, cfg Config) (delivered []logs.ProxyRecord, st Stats, err error) {
	var read atomic.Int64
	fs := &refScanner{
		r:       &countingReader{r: r, limit: cfg.MaxConnBytes, total: &read},
		framing: cfg.Framing, max: cfg.MaxFrameBytes, buf: make([]byte, 0, 4096),
	}
	proxy, flow := logs.NewProxyDecoder(), logs.NewFlowDecoder()
	var pending []logs.ProxyRecord
	flush := func() {
		delivered = append(delivered, pending...)
		st.Records += int64(len(pending))
		pending = pending[:0]
	}
	defer func() { st.ReadBytes = read.Load() }()
	for {
		frame, ferr := fs.next()
		if ferr != nil {
			flush()
			switch {
			case ferr == io.EOF:
				return delivered, st, nil
			case errors.Is(ferr, errConnBytes) || errors.Is(ferr, errFrameTooBig):
				st.OverLimitConns++
			case errors.Is(ferr, errBadOctetHeader) || errors.Is(ferr, errTornFrame):
				st.MalformedFrames++
			}
			return delivered, st, ferr
		}
		if len(frame) == 0 {
			continue
		}
		st.Frames++
		var derr error
		if cfg.Format == FormatFlow {
			var fr logs.FlowRecord
			if fr, derr = flow.ParseFlowRecord(frame); derr == nil {
				if (fr.DstPort != 80 && fr.DstPort != 443) || normalize.IsInternal(fr.DstIP) {
					st.FilteredFlows++
				} else {
					pending = append(pending, logs.ProxyRecord{Time: fr.Time, SrcIP: fr.SrcIP, Domain: FlowDomain(fr.DstIP), DestIP: fr.DstIP})
				}
			}
		} else {
			if cfg.SyslogHeader {
				frame, derr = stripSyslogHeader(frame)
			}
			if derr == nil {
				var rec logs.ProxyRecord
				if rec, derr = proxy.ParseProxyRecord(frame); derr == nil {
					pending = append(pending, rec)
				}
			}
		}
		if derr != nil {
			st.MalformedFrames++
			flush()
			return delivered, st, fmt.Errorf("inputs/%s: %w", cfg.Name, derr)
		}
		if n := len(pending); n >= cfg.BatchRecords || (n > 0 && !fs.buffered()) {
			flush()
		}
	}
}

// diffHandle drives the same bytes, cut into chunk-byte reads, through
// HandleConn and through the reference loop and requires the same delivered
// records, the same counters and the same error. Inputs stay under the
// reference's 4 KiB buffer, where both loops issue the same reads, so
// ReadBytes must agree even on a connection refused mid-stream.
func diffHandle(t *testing.T, label string, data []byte, cfg Config, chunk int) {
	t.Helper()
	if len(data) > 2048 {
		data = data[:2048]
	}
	eng := &scriptEngine{}
	l := NewListener(eng, cfg)
	gotErr := l.HandleConn(&readerConn{r: &chunkReader{data: bytes.Clone(data), chunk: chunk}})
	got := l.Stats()
	want, wantSt, wantErr := refHandle(&chunkReader{data: bytes.Clone(data), chunk: chunk}, l.cfg)
	wantSt.Name = cfg.Name

	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s, chunk %d: error %v, reference %v (input %q)", label, chunk, gotErr, wantErr, data)
	}
	if got != wantSt {
		t.Fatalf("%s, chunk %d: stats %+v, reference %+v (input %q)", label, chunk, got, wantSt, data)
	}
	if len(eng.recs) != len(want) {
		t.Fatalf("%s, chunk %d: delivered %d records, reference %d (input %q)", label, chunk, len(eng.recs), len(want), data)
	}
	for i := range want {
		if g, w := logs.AppendProxy(nil, eng.recs[i]), logs.AppendProxy(nil, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("%s, chunk %d: record %d = %q, reference %q", label, chunk, i, g, w)
		}
	}
}

// octetFrames wraps each payload in an RFC 6587 octet count.
func octetFrames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = strconv.AppendInt(out, int64(len(p)), 10)
		out = append(out, ' ')
		out = append(out, p...)
	}
	return out
}

// TestHandleConnMatchesPerFrameReference cuts each scenario at every read
// size, so every frame boundary, CR, blank line and refusal point lands on
// a chunk boundary in some run.
func TestHandleConnMatchesPerFrameReference(t *testing.T) {
	line := func(i int) string {
		r := testProxyRecord(i)
		r.URL = fmt.Sprintf("/p/%d?q=a\tb", i) // an escaped tab in the URL
		r.Referer = fmt.Sprintf("http://ref-%d.example/", i%2)
		b := logs.AppendProxy(nil, r)
		return string(b[:len(b)-1])
	}
	flowLine := func(dst string, port int) string {
		return string(bytes.TrimSuffix(logs.AppendFlow(nil, logs.FlowRecord{
			Time: testProxyRecord(0).Time, SrcIP: netip.MustParseAddr("10.0.0.7"), DstIP: netip.MustParseAddr(dst),
			DstPort: uint16(port), Protocol: "tcp", Bytes: 10, Packets: 1,
		}), []byte("\n")))
	}
	syslog := func(msg string) string { return "<134>1 2014-03-04T09:00:00Z proxy1 squid 77 - - " + msg }
	long := line(0) + string(bytes.Repeat([]byte("x"), 300)) // a frame over the 256-byte cap used below

	cases := []struct {
		name string
		cfg  Config
		in   []byte
	}{
		{"newline clean", Config{}, []byte(line(0) + "\n" + line(1) + "\n" + line(2) + "\n")},
		{"newline CRLF and blank keep-alives", Config{}, []byte("\n" + line(0) + "\r\n\r\n\n" + line(1) + "\n\n")},
		{"newline batch boundary", Config{BatchRecords: 2}, []byte(line(0) + "\n" + line(1) + "\n" + line(2) + "\n" + line(3) + "\n" + line(4) + "\n")},
		{"newline torn final frame", Config{}, []byte(line(0) + "\n" + line(1)[:40])},
		{"newline frame over the cap", Config{MaxFrameBytes: 256}, []byte(line(0) + "\n" + long + "\n" + line(1) + "\n")},
		{"newline unterminated over the cap", Config{MaxFrameBytes: 256}, []byte(line(0) + "\n" + long)},
		{"newline malformed frame mid-stream", Config{}, []byte(line(0) + "\n" + line(1) + "\nnot\ta\trecord\n" + line(2) + "\n")},
		{"newline connection byte cap", Config{MaxConnBytes: 300}, []byte(line(0) + "\n" + line(1) + "\n" + line(2) + "\n" + line(3) + "\n")},
		{"octet clean with empty frames", Config{Framing: FramingOctet}, octetFrames(line(0), "", line(1), "", "")},
		{"octet torn payload", Config{Framing: FramingOctet}, octetFrames(line(0), line(1))[:len(line(0))+40]},
		{"octet torn header", Config{Framing: FramingOctet}, append(octetFrames(line(0)), "12"...)},
		{"octet count over the cap", Config{Framing: FramingOctet, MaxFrameBytes: 256}, octetFrames(line(0), long, line(1))},
		{"octet bad header", Config{Framing: FramingOctet}, append(octetFrames(line(0)), "x5 hello"...)},
		{"octet malformed frame mid-stream", Config{Framing: FramingOctet}, octetFrames(line(0), "garbage", line(1))},
		{"syslog header", Config{Framing: FramingOctet, SyslogHeader: true}, octetFrames(syslog(line(0)), syslog(line(1)), line(2))},
		{"flow with filtered frames", Config{Format: FormatFlow}, []byte(flowLine("203.0.113.9", 443) + "\n" + flowLine("203.0.113.9", 22) + "\n" +
			flowLine("10.1.1.1", 80) + "\n\n" + flowLine("198.51.100.4", 80) + "\nbad flow\n")},
	}
	for _, tc := range cases {
		tc.cfg.Name = "ref"
		for chunk := 1; chunk <= len(tc.in)+1; chunk++ {
			if chunk > 64 && chunk%37 != 0 && chunk < len(tc.in) {
				continue // every small cut, a sample of the large ones, and the whole input at once
			}
			diffHandle(t, tc.name, tc.in, tc.cfg, chunk)
		}
	}
}
