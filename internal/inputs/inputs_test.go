package inputs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logs"
)

// scriptEngine is a scripted Ingester with the engine's AcceptBatch: it
// records what it accepts and lags or refuses on demand, so tests can pin
// exact drop counts.
type scriptEngine struct {
	mu      sync.Mutex
	recs    []logs.ProxyRecord
	lagging atomic.Bool
	err     error
}

func (s *scriptEngine) IngestBatch(recs []logs.ProxyRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.recs = append(s.recs, recs...)
	return nil
}

// AcceptBatch has the engine's contract: the batch is copied, in acceptance
// order, before AcceptBatch returns, and routed is called from a goroutine
// of its own once accepted (inline on a refusal).
func (s *scriptEngine) AcceptBatch(recs []logs.ProxyRecord, routed func()) error {
	if err := s.IngestBatch(recs); err != nil {
		routed()
		return err
	}
	go routed()
	return nil
}

func (s *scriptEngine) Lagging() bool { return s.lagging.Load() }

func (s *scriptEngine) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func testProxyRecord(i int) logs.ProxyRecord {
	return logs.ProxyRecord{
		Time:      time.Date(2014, 3, 4, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		Host:      fmt.Sprintf("host-%d", i%5),
		SrcIP:     netip.MustParseAddr("10.0.0.7"),
		Domain:    fmt.Sprintf("site-%d.example.org", i%3),
		DestIP:    netip.MustParseAddr("198.51.100.9"),
		URL:       "/index.html",
		Method:    "GET",
		Status:    200,
		UserAgent: "ua/1.0",
	}
}

// frameProxy encodes records one frame per record in the given framing
// (lines from AppendProxy, octet counts excluding the newline).
func frameProxy(framing Framing, recs []logs.ProxyRecord) []byte {
	var out, line []byte
	for _, r := range recs {
		line = logs.AppendProxy(line[:0], r)
		if framing == FramingNewline {
			out = append(out, line...)
			continue
		}
		payload := line[:len(line)-1]
		out = strconv.AppendInt(out, int64(len(payload)), 10)
		out = append(out, ' ')
		out = append(out, payload...)
	}
	return out
}

// drive runs one connection through HandleConn over a net.Pipe: the
// returned write half feeds the handler, and done yields HandleConn's
// error after the write half closes. The pipe is synchronous, so a write
// returns once the handler has read it; decoding and routing may still be
// running then, and HandleConn returns only after both finish.
func drive(t *testing.T, l *Listener) (net.Conn, <-chan error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- l.HandleConn(server) }()
	t.Cleanup(func() { client.Close() })
	return client, done
}

func TestHandleConnDeliversBothFramings(t *testing.T) {
	for _, framing := range []Framing{FramingNewline, FramingOctet} {
		eng := &scriptEngine{}
		l := NewListener(eng, Config{Name: "t", Framing: framing})
		client, done := drive(t, l)
		recs := make([]logs.ProxyRecord, 40)
		for i := range recs {
			recs[i] = testProxyRecord(i)
		}
		wire := frameProxy(framing, recs)
		// Odd-size chunks so frames tear across writes.
		for len(wire) > 0 {
			n := min(23, len(wire))
			if _, err := client.Write(wire[:n]); err != nil {
				t.Fatal(err)
			}
			wire = wire[n:]
		}
		client.Close()
		if err := <-done; err != nil {
			t.Fatalf("framing %v: %v", framing, err)
		}
		if got := eng.count(); got != len(recs) {
			t.Fatalf("framing %v: engine got %d records, want %d", framing, got, len(recs))
		}
		st := l.Stats()
		if st.Records != int64(len(recs)) || st.Frames != int64(len(recs)) ||
			st.MalformedFrames != 0 || st.SheddedRecords != 0 {
			t.Fatalf("framing %v: stats %+v", framing, st)
		}
		if eng.recs[7] != recs[7] {
			t.Fatalf("framing %v: record 7 = %+v, want %+v", framing, eng.recs[7], recs[7])
		}
	}
}

// TestHandleConnShedsWhileLagging pins the backpressure policy: records
// arriving while the engine lags are dropped at batch boundaries with
// exact counts; records around the lagging window are all delivered.
func TestHandleConnShedsWhileLagging(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "t"})
	client, done := drive(t, l)

	send := func(from, to int) {
		t.Helper()
		var recs []logs.ProxyRecord
		for i := from; i < to; i++ {
			recs = append(recs, testProxyRecord(i))
		}
		if _, err := client.Write(frameProxy(FramingNewline, recs)); err != nil {
			t.Fatal(err)
		}
	}

	// The pipe write returns once the handler consumed the bytes, but the
	// flush behind it is asynchronous — wait for each window's counters
	// to settle before toggling the lagging switch, so the batch
	// boundaries (and therefore the drop counts) are pinned exactly.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	send(0, 10)
	waitFor("first window ingested", func() bool { return eng.count() == 10 })
	eng.lagging.Store(true)
	send(10, 17)
	waitFor("lagging window shed", func() bool { return l.Stats().SheddedRecords == 7 })
	eng.lagging.Store(false)
	send(17, 20)
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SheddedRecords != 7 {
		t.Fatalf("shedded %d records, want 7", st.SheddedRecords)
	}
	if got := eng.count(); got != 13 {
		t.Fatalf("engine got %d records, want 13", got)
	}
	if st.Records != 13 {
		t.Fatalf("stats.Records = %d, want 13", st.Records)
	}
}

func TestHandleConnRejectedCounted(t *testing.T) {
	eng := &scriptEngine{err: fmt.Errorf("stream: no open day")}
	l := NewListener(eng, Config{Name: "t"})
	client, done := drive(t, l)
	client.Write(frameProxy(FramingNewline, []logs.ProxyRecord{testProxyRecord(0), testProxyRecord(1)}))
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.RejectedRecords != 2 || st.Records != 0 {
		t.Fatalf("stats %+v, want 2 rejected and 0 accepted", st)
	}
}

func TestHandleConnMidFrameDisconnect(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "t"})
	client, done := drive(t, l)
	wire := frameProxy(FramingNewline, []logs.ProxyRecord{testProxyRecord(0), testProxyRecord(1)})
	client.Write(wire[:len(wire)-10]) // second record torn mid-frame
	client.Close()
	if err := <-done; err == nil {
		t.Fatal("want torn-frame error, got nil")
	}
	// The complete record before the tear must still have been delivered.
	if got := eng.count(); got != 1 {
		t.Fatalf("engine got %d records, want the 1 complete one", got)
	}
	if st := l.Stats(); st.MalformedFrames != 1 {
		t.Fatalf("malformedFrames = %d, want 1", st.MalformedFrames)
	}
}

func TestHandleConnUndecodableFrame(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "t"})
	client, done := drive(t, l)
	wire := frameProxy(FramingNewline, []logs.ProxyRecord{testProxyRecord(0)})
	wire = append(wire, []byte("this is not a proxy record\n")...)
	client.Write(wire)
	if err := <-done; err == nil {
		t.Fatal("want decode error, got nil")
	}
	if got := eng.count(); got != 1 {
		t.Fatalf("engine got %d records, want 1", got)
	}
	if st := l.Stats(); st.MalformedFrames != 1 {
		t.Fatalf("malformedFrames = %d, want 1", st.MalformedFrames)
	}
}

func TestHandleConnByteCap(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "t", MaxConnBytes: 64})
	client, done := drive(t, l)
	var recs []logs.ProxyRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, testProxyRecord(i))
	}
	wire := frameProxy(FramingNewline, recs)
	go client.Write(wire) // the handler stops reading at the cap
	if err := <-done; err == nil {
		t.Fatal("want byte-cap error, got nil")
	}
	if st := l.Stats(); st.OverLimitConns != 1 {
		t.Fatalf("overLimitConns = %d, want 1", st.OverLimitConns)
	}
	if st := l.Stats(); st.ReadBytes > 64 {
		t.Fatalf("read %d bytes past the 64-byte cap", st.ReadBytes)
	}
}

func TestSyslogFraming(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "syslog", Framing: FramingOctet, SyslogHeader: true})
	client, done := drive(t, l)
	var line []byte
	rec := testProxyRecord(3)
	line = logs.AppendProxy(line, rec)
	// The RFC 5424 + octet-counting shape internal/alert's SyslogSink
	// emits: "<PRI>1 TS HOST APP - - - MSG", then "LEN SP" prepended.
	msg := fmt.Sprintf("<134>1 2014-03-04T09:00:00Z gw proxyd - - - %s", line[:len(line)-1])
	frame := fmt.Sprintf("%d %s", len(msg), msg)
	client.Write([]byte(frame))
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if eng.count() != 1 || eng.recs[0] != rec {
		t.Fatalf("engine got %+v, want %+v", eng.recs, rec)
	}

	// A frame without the supported header shape refuses the connection.
	eng2 := &scriptEngine{}
	l2 := NewListener(eng2, Config{Name: "syslog", Framing: FramingOctet, SyslogHeader: true})
	client2, done2 := drive(t, l2)
	client2.Write([]byte("5 hello"))
	client2.Close()
	if err := <-done2; err == nil {
		t.Fatal("want syslog-header error, got nil")
	}
	if st := l2.Stats(); st.MalformedFrames != 1 {
		t.Fatalf("malformedFrames = %d, want 1", st.MalformedFrames)
	}
}

func TestStripSyslogHeader(t *testing.T) {
	good := "<134>1 2014-03-04T09:00:00Z host app 12 mid - the payload"
	msg, err := stripSyslogHeader([]byte(good))
	if err != nil || string(msg) != "the payload" {
		t.Fatalf("stripSyslogHeader(%q) = %q, %v", good, msg, err)
	}
	for _, bad := range []string{
		"", "no pri", "<>1 a b c d e - x", "<1x>1 a b c d e - x",
		"<134>1 a b c - x", "<134>1 a b c d e [sd] x", "<134>1 a b c d e ",
	} {
		if _, err := stripSyslogHeader([]byte(bad)); err == nil {
			t.Errorf("stripSyslogHeader(%q) accepted a malformed header", bad)
		}
	}
}

func TestFlowListener(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "flow", Format: FormatFlow})
	client, done := drive(t, l)
	at := time.Date(2014, 3, 4, 10, 0, 0, 0, time.UTC)
	flows := []logs.FlowRecord{
		{Time: at, SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("203.0.113.9"), DstPort: 443, Protocol: "tcp", Bytes: 900, Packets: 4},
		{Time: at, SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("203.0.113.9"), DstPort: 22, Protocol: "tcp", Bytes: 100, Packets: 1}, // non-web port
		{Time: at, SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("192.168.4.4"), DstPort: 80, Protocol: "tcp", Bytes: 100, Packets: 1}, // internal dst
		{Time: at, SrcIP: netip.MustParseAddr("10.1.2.4"), DstIP: netip.MustParseAddr("198.51.100.5"), DstPort: 80, Protocol: "udp", Bytes: 50, Packets: 1},
	}
	var wire []byte
	for _, fr := range flows {
		wire = logs.AppendFlow(wire, fr)
	}
	client.Write(wire)
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := eng.count(); got != 2 {
		t.Fatalf("engine got %d records, want 2 (web-port external flows)", got)
	}
	if st := l.Stats(); st.FilteredFlows != 2 || st.Records != 2 {
		t.Fatalf("stats %+v, want 2 filtered / 2 accepted", st)
	}
	r := eng.recs[0]
	if r.Domain != "203-0-113-9.netflow" || r.Host != "" || r.SrcIP != flows[0].SrcIP ||
		r.DestIP != flows[0].DstIP || !r.Time.Equal(at) {
		t.Fatalf("embedded flow record = %+v", r)
	}
}

func TestFlowDomain(t *testing.T) {
	cases := map[string]string{
		"203.0.113.9": "203-0-113-9.netflow",
		"2001:db8::7": "2001-db8--7.netflow",
	}
	for in, want := range cases {
		got := FlowDomain(netip.MustParseAddr(in))
		if got != want {
			t.Errorf("FlowDomain(%s) = %q, want %q", in, got, want)
		}
		// The embedding must survive the proxy reduction unchanged: not an
		// IP literal, and its own second-level fold.
		if logs.IsIPLiteral(got) {
			t.Errorf("FlowDomain(%s) = %q classifies as an IP literal", in, got)
		}
		if folded := logs.FoldSecondLevel(got); folded != got {
			t.Errorf("FoldSecondLevel(%q) = %q, want identity", got, folded)
		}
	}
}

// TestListenerConcurrentConns exercises the bound-socket path under the
// race detector (the CI matrix runs this package at -race -cpu 1,4):
// concurrent connections, one of them torn mid-frame, one shed window,
// then Close with a connection still open.
func TestListenerConcurrentConns(t *testing.T) {
	eng := &scriptEngine{}
	l, err := Listen(eng, "127.0.0.1:0", Config{Name: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const conns, per = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			var recs []logs.ProxyRecord
			for i := 0; i < per; i++ {
				recs = append(recs, testProxyRecord(c*per+i))
			}
			wire := frameProxy(FramingNewline, recs)
			if c == 0 {
				wire = wire[:len(wire)-5] // tear the final frame
			}
			for len(wire) > 0 {
				n := min(97, len(wire))
				if _, err := conn.Write(wire[:n]); err != nil {
					t.Error(err)
					return
				}
				wire = wire[n:]
			}
		}(c)
	}
	wg.Wait()
	// All writes completed; wait for the handlers to drain them.
	want := int64(conns*per - 1) // conn 0's final record was torn
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := l.Stats()
		if st.Records+st.SheddedRecords >= want && st.ConnsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out draining: stats %+v, want %d records", st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := l.Stats()
	if st.Records != want || st.MalformedFrames != 1 || st.ConnsAccepted != conns {
		t.Fatalf("stats %+v, want %d records, 1 malformed, %d conns", st, want, conns)
	}
	if int64(eng.count()) != want {
		t.Fatalf("engine got %d records, want %d", eng.count(), want)
	}

	// Close with an idle connection open: Close must unblock its read and
	// return, not hang.
	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	var one [1]byte
	idle.Write(frameProxy(FramingNewline, []logs.ProxyRecord{testProxyRecord(1)}))
	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with an idle connection open")
	}
	if _, err := idle.Read(one[:]); err == nil {
		t.Fatal("idle connection still open after Close")
	}
}

// TestListenerBatchBoundary checks the non-eager path: over a buffered
// wire, records accumulate to BatchRecords before one AcceptBatch call.
func TestListenerBatchBoundary(t *testing.T) {
	eng := &scriptEngine{}
	l := NewListener(eng, Config{Name: "t", BatchRecords: 8})
	var recs []logs.ProxyRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, testProxyRecord(i))
	}
	// bytes.Reader never blocks, so the eager !buffered() flush only fires
	// at the true end of stream; batches of 8 are forced by BatchRecords.
	wire := frameProxy(FramingNewline, recs)
	server := &readerConn{r: bytes.NewReader(wire)}
	if err := l.HandleConn(server); err != nil {
		t.Fatal(err)
	}
	if got := eng.count(); got != 20 {
		t.Fatalf("engine got %d records, want 20", got)
	}
}

// readerConn adapts an io.Reader into the net.Conn surface HandleConn
// needs.
type readerConn struct {
	r io.Reader
}

func (rc *readerConn) Read(p []byte) (int, error)         { return rc.r.Read(p) }
func (rc *readerConn) Write(p []byte) (int, error)        { return len(p), nil }
func (rc *readerConn) Close() error                       { return nil }
func (rc *readerConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (rc *readerConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (rc *readerConn) SetDeadline(t time.Time) error      { return nil }
func (rc *readerConn) SetReadDeadline(t time.Time) error  { return nil }
func (rc *readerConn) SetWriteDeadline(t time.Time) error { return nil }
