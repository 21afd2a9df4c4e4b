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

// heldEngine is a scriptEngine whose AcceptBatch routes on a goroutine that
// first calls hold with the 1-based number of the batch, so a test can stall
// routing at a chosen batch. routing counts the accepted batches whose routed
// callback has not been reached; after the test sets returned, any further
// AcceptBatch is counted as late: HandleConn promised it had drained.
type heldEngine struct {
	scriptEngine
	calls    atomic.Int64
	hold     func(call int64)
	routing  atomic.Int64
	returned atomic.Bool
	late     atomic.Int64
}

func (h *heldEngine) AcceptBatch(recs []logs.ProxyRecord, routed func()) error {
	if h.returned.Load() {
		h.late.Add(1)
	}
	call := h.calls.Add(1)
	if err := h.scriptEngine.IngestBatch(recs); err != nil {
		routed()
		return err
	}
	h.routing.Add(1)
	go func() {
		if h.hold != nil {
			h.hold(call)
		}
		// Counted down before routed: once HandleConn has waited out every
		// routed call, the count it leaves is exactly the batches it did not
		// wait for.
		h.routing.Add(-1)
		routed()
	}()
	return nil
}

// checkDrained fails the test unless the connection HandleConn just returned
// from has no batch still routing — so every record buffer is back in its
// pool — and makes any later engine call count as late.
func checkDrained(t *testing.T, label string, eng *heldEngine) {
	t.Helper()
	eng.returned.Store(true)
	if n := eng.routing.Load(); n != 0 {
		t.Fatalf("%s: HandleConn returned with %d batches still routing", label, n)
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running, want %d: HandleConn left a goroutine behind",
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

// TestHandleConnDecodesBesideDelivery pins the overlap of decode with
// routing: the routing of the connection's first batch holds until Stats
// shows the reads behind it decoded too. A connection that waited for each
// batch to be routed before decoding the next could not cut a frame while
// that routing holds, so there the wait times out.
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
		if call != 1 {
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
	checkDrained(t, "decode beside routing", eng)
	if !decodedAhead.Load() {
		t.Fatalf("the first batch's routing saw no read decoded behind it within 5 s (frames %d at return)", l.Stats().Frames)
	}
	if got := eng.count(); got != len(recs) {
		t.Fatalf("engine got %d records, want %d", got, len(recs))
	}
}

// TestHandleConnJoinsDeliveryOnEveryReturn drives each terminal condition
// with routing running behind decode (every batch's routing stalls), and
// requires the same of all of them: HandleConn returns only after the
// records parsed before the condition are accepted, in order, and every
// batch is routed, with no engine call after it returns; the goroutine count
// falls back; and Stats equals the per-frame reference loop's.
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
			checkDrained(t, label, eng)
			got := l.Stats()
			wantErr := checkReference(t, label, l, eng, got, &chunkReader{data: bytes.Clone(tc.in), chunk: chunk})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
			}
			waitGoroutines(t, label, baseline)
			if n := eng.late.Load(); n != 0 {
				t.Fatalf("%s: %d AcceptBatch calls after HandleConn returned", label, n)
			}
		}
	}
}

// TestListenerCloseJoinsBlockedDelivery closes a listener while the routing
// of a connection's second batch is blocked: Close must wait for that
// routing and the batches accepted around it, and leave nothing running.
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
		t.Fatal("Close returned while a batch of its connection was still routing")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	released = true
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the blocked routing did")
	}
	checkDrained(t, "close while blocked", eng)
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
	if n := eng.late.Load(); n != 0 {
		t.Fatalf("%d AcceptBatch calls after Close returned", n)
	}
}
