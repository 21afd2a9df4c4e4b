package inputs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/logs"
)

// heldEngine is a scriptEngine whose IngestBatch first calls hold with the
// 1-based number of the call, outside the engine's lock, so a test can stall
// delivery at a chosen batch. After the test sets returned, any further
// IngestBatch is counted as late: HandleConn promised it had drained.
type heldEngine struct {
	scriptEngine
	calls    atomic.Int64
	hold     func(call int64)
	returned atomic.Bool
	late     atomic.Int64
}

func (h *heldEngine) IngestBatch(recs []logs.ProxyRecord) error {
	if h.hold != nil {
		h.hold(h.calls.Add(1))
	}
	if h.returned.Load() {
		h.late.Add(1)
	}
	return h.scriptEngine.IngestBatch(recs)
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running, want %d: HandleConn left its delivery goroutine behind",
				label, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkReference holds what one connection delivered and its Stats to the
// per-frame reference loop run over ref (the same bytes, read the same way,
// ending the same way), and returns the reference's terminal error.
func checkReference(t *testing.T, label string, l *Listener, eng *heldEngine, got Stats, ref io.Reader) error {
	t.Helper()
	want, wantSt, wantErr := refHandle(ref, l.cfg)
	wantSt.Name = l.cfg.Name
	if got != wantSt {
		t.Fatalf("%s: stats %+v, reference %+v", label, got, wantSt)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.recs) != len(want) {
		t.Fatalf("%s: delivered %d records, reference %d", label, len(eng.recs), len(want))
	}
	for i := range want {
		if g, w := logs.AppendProxy(nil, eng.recs[i]), logs.AppendProxy(nil, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("%s: record %d = %q, reference %q", label, i, g, w)
		}
	}
	return wantErr
}

// TestHandleConnDecodesBesideDelivery pins the two-stage reader chain: the
// connection's second IngestBatch — the first to run on the delivery
// goroutine, the first batch going out inline — holds until Stats shows the
// read behind it decoded too. A loop that decodes and delivers on one
// goroutine cannot cut a frame while IngestBatch holds it, so there the wait
// times out.
func TestHandleConnDecodesBesideDelivery(t *testing.T) {
	// Three reads of perRead records, each passed on eagerly as a short
	// batch once the read is drained: the frames counter moves once per
	// read, before that hand-off.
	const perRead = 6
	recs := make([]logs.ProxyRecord, 3*perRead)
	for i := range recs {
		recs[i] = testProxyRecord(i)
	}
	wire := frameProxy(FramingNewline, recs) // testProxyRecord's lines share one length
	eng := &heldEngine{}
	l := NewListener(eng, Config{Name: "t", BatchRecords: perRead + 2})
	var decodedAhead atomic.Bool
	eng.hold = func(call int64) {
		if call != 2 {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if l.Stats().Frames >= 3*perRead {
				decodedAhead.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := l.HandleConn(&readerConn{r: &chunkReader{data: wire, chunk: len(wire) / 3}}); err != nil {
		t.Fatal(err)
	}
	if !decodedAhead.Load() {
		t.Fatalf("the second IngestBatch saw no read decoded behind it within 5 s (frames %d at return)", l.Stats().Frames)
	}
	if got := eng.count(); got != len(recs) {
		t.Fatalf("engine got %d records, want %d", got, len(recs))
	}
}

// TestHandleConnJoinsDeliveryOnEveryReturn drives each terminal condition
// with delivery running behind decode (every IngestBatch stalls), and
// requires the same of all of them: HandleConn returns only after the
// records parsed before the condition are delivered, in order, with no
// IngestBatch after it returns; the goroutine count falls back; and Stats
// equals the per-frame reference loop's.
func TestHandleConnJoinsDeliveryOnEveryReturn(t *testing.T) {
	recs := make([]logs.ProxyRecord, 10)
	for i := range recs {
		recs[i] = testProxyRecord(i)
	}
	wire := frameProxy(FramingNewline, recs)
	lineLen := len(wire) / len(recs)
	if len(wire) != lineLen*len(recs) {
		t.Fatal("testProxyRecord's lines differ in length; the cuts below assume they do not")
	}
	cases := []struct {
		name string
		cfg  Config
		in   []byte
	}{
		{"clean EOF", Config{}, wire},
		{"torn frame", Config{}, wire[:len(wire)-10]},
		{"undecodable frame", Config{}, append(append(bytes.Clone(wire[:6*lineLen]), "not\ta\trecord\n"...), wire[6*lineLen:]...)},
		{"byte cap", Config{MaxConnBytes: int64(5*lineLen + lineLen/2)}, wire},
	}
	for _, tc := range cases {
		for _, chunk := range []int{lineLen, 3*lineLen + 7, len(tc.in)} {
			label := fmt.Sprintf("%s, chunk %d", tc.name, chunk)
			tc.cfg.Name, tc.cfg.BatchRecords = "join", 3
			eng := &heldEngine{hold: func(int64) { time.Sleep(2 * time.Millisecond) }}
			l := NewListener(eng, tc.cfg)
			baseline := runtime.NumGoroutine()
			err := l.HandleConn(&readerConn{r: &chunkReader{data: bytes.Clone(tc.in), chunk: chunk}})
			eng.returned.Store(true)
			got := l.Stats()
			wantErr := checkReference(t, label, l, eng, got, &chunkReader{data: bytes.Clone(tc.in), chunk: chunk})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
			}
			if n := eng.late.Load(); n != 0 {
				t.Fatalf("%s: %d IngestBatch calls after HandleConn returned", label, n)
			}
			waitGoroutines(t, label, baseline)
		}
	}
}

// TestListenerCloseJoinsBlockedDelivery closes a listener while a
// connection's delivery goroutine is blocked in IngestBatch (the second
// batch's; the first goes out inline): Close must wait for that delivery and
// the batches queued behind it, and leave nothing running.
func TestListenerCloseJoinsBlockedDelivery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release, entered := make(chan struct{}), make(chan struct{})
	eng := &heldEngine{hold: func(call int64) {
		if call == 2 {
			close(entered)
			<-release
		}
	}}
	l, err := Listen(eng, "127.0.0.1:0", Config{Name: "tcp", BatchRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			close(release) // a failing test must not leave Close hung
		}
		l.Close()
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	recs := make([]logs.ProxyRecord, 10)
	for i := range recs {
		recs[i] = testProxyRecord(i)
	}
	wire := frameProxy(FramingNewline, recs)
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no batch reached the engine")
	}
	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a delivery was blocked in IngestBatch")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	released = true
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the blocked IngestBatch did")
	}
	eng.returned.Store(true)
	got := l.Stats()
	if got.ConnsAccepted != 1 || got.ConnsActive != 0 {
		t.Fatalf("stats %+v, want 1 connection accepted and none active", got)
	}
	got.Addr, got.ConnsAccepted = "", 0
	// The reference reads what the listener read before Close, then the
	// closed connection's error.
	read := bytes.NewReader(wire[:got.ReadBytes])
	checkReference(t, "close while blocked", l, eng, got, io.MultiReader(read, iotest.ErrReader(net.ErrClosed)))
	if got.Records == 0 {
		t.Fatal("no records delivered")
	}
	client.Close()
	waitGoroutines(t, "close while blocked", baseline)
}
