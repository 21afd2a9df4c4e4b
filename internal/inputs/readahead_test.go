package inputs

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logs"
)

// watchedConn counts the bytes and calls read from a connection, the most
// chunks out of chunkPool any read saw above base, what was out before the
// connection started — a read by a read-ahead sees the scanner's chunk and
// all of the read-ahead's — and any read after the test set returned.
type watchedConn struct {
	net.Conn
	base              int64
	reads, read, late atomic.Int64
	peak              atomic.Int64
	returned          atomic.Bool
}

func watch(c net.Conn) *watchedConn { return &watchedConn{Conn: c, base: chunksOut.Load()} }

func (w *watchedConn) Read(p []byte) (int, error) {
	if w.returned.Load() {
		w.late.Add(1)
	}
	w.reads.Add(1)
	w.peak.Store(max(w.peak.Load(), chunksOut.Load()-w.base)) // reads never overlap
	n, err := w.Conn.Read(p)
	w.read.Add(int64(n))
	return n, err
}

// streamWire frames at least chunks × readChunk bytes of proxy records.
func streamWire(chunks int) (wire []byte, lineLen int) {
	for i := 0; len(wire) < chunks*readChunk; i++ {
		wire = logs.AppendProxy(wire, testProxyRecord(i))
	}
	return wire, len(logs.AppendProxy(nil, testProxyRecord(0)))
}

// heldReads is an engine whose first AcceptBatch blocks until release is
// closed, on the connection's own goroutine.
type heldReads struct {
	scriptEngine
	entered, release chan struct{}
	calls            atomic.Int64
}

func (h *heldReads) AcceptBatch(recs []logs.ProxyRecord, routed func()) error {
	if h.calls.Add(1) == 1 {
		close(h.entered)
		<-h.release
	}
	return h.scriptEngine.AcceptBatch(recs, routed)
}

// TestHandleConnReadsAheadOfBlockedAccept pins the read-ahead: on a
// connection carrying several full chunks, the socket is read again while
// the connection's loop is blocked handing its first batch to the engine —
// up to the read-ahead's chunks and no further. A connection that read only
// from its loop would make no read until that hand-off returned.
func TestHandleConnReadsAheadOfBlockedAccept(t *testing.T) {
	wire, _ := streamWire(6)
	eng := &heldReads{entered: make(chan struct{}), release: make(chan struct{})}
	l := NewListener(eng, Config{Name: "t", BatchRecords: 8})
	conn := watch(&readerConn{r: bytes.NewReader(wire)})
	done := make(chan error, 1)
	go func() { done <- l.HandleConn(conn) }()
	released := false
	defer func() {
		if !released {
			close(eng.release)
		}
	}()
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no batch reached the engine")
	}
	// The loop's one read, then one read per chunk the read-ahead owns.
	want := int64(1 + aheadChunks)
	deadline := time.Now().Add(5 * time.Second)
	for conn.reads.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("the connection was read %d times while its first AcceptBatch was blocked, want %d", conn.reads.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	// Give the read-ahead time to run past its bound, if it would.
	time.Sleep(20 * time.Millisecond)
	if got := conn.reads.Load(); got != want {
		t.Fatalf("%d reads while the first AcceptBatch was blocked, want %d (the loop's, then one per read-ahead chunk)", got, want)
	}
	close(eng.release)
	released = true
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := eng.count(), len(wire)/len(logs.AppendProxy(nil, testProxyRecord(0))); got != want {
		t.Fatalf("engine got %d records, want %d", got, want)
	}
}

// readAheadRunning counts goroutines running a read-ahead.
func readAheadRunning() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*readAhead).run(")
}

// TestHandleConnJoinsReadAheadOnEveryReturn drives a connection past its
// first full read into each terminal condition — end of stream, an
// undecodable frame, a torn frame, the byte cap, and Listener.Close — and
// requires of each that the read-ahead started, that by the time HandleConn
// (or Close) returns every chunk is back in chunkPool and nothing reads the
// connection any more, and that no read-ahead goroutine is left running. The
// byte cap also bounds how far the connection was read past it.
func TestHandleConnJoinsReadAheadOnEveryReturn(t *testing.T) {
	wire, lineLen := streamWire(5)
	bad := bytes.Clone(wire)
	copy(bad[4*readChunk:], "not\ta\trecord\n") // lands inside some frame of the fifth chunk
	const connCap = 2*readChunk + readChunk/2
	cases := []struct {
		name    string
		cfg     Config
		in      []byte
		wantErr bool
	}{
		{"clean EOF", Config{}, wire, false},
		{"undecodable frame", Config{}, bad, true},
		{"torn frame", Config{}, wire[:len(wire)-lineLen/2], true},
		{"byte cap", Config{MaxConnBytes: connCap}, wire, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Name = "join"
			l := NewListener(&scriptEngine{}, tc.cfg)
			client, server := net.Pipe()
			conn := watch(server)
			go func() {
				client.Write(tc.in) // fails once HandleConn closes its end
				client.Close()
			}()
			err := l.HandleConn(conn)
			conn.returned.Store(true)
			if (err != nil) != tc.wantErr {
				t.Fatalf("HandleConn: %v", err)
			}
			checkJoined(t, conn, conn.base)
			if tc.cfg.MaxConnBytes > 0 {
				if past := conn.read.Load() - tc.cfg.MaxConnBytes; past > aheadChunks*readChunk {
					t.Fatalf("read %d bytes past the byte cap, want at most %d", past, aheadChunks*readChunk)
				}
				if st := l.Stats(); st.ReadBytes != tc.cfg.MaxConnBytes || st.OverLimitConns != 1 {
					t.Fatalf("stats %+v, want ReadBytes at the cap (%d) and one over-limit connection", st, tc.cfg.MaxConnBytes)
				}
			}
		})
	}

	t.Run("Listener.Close", func(t *testing.T) {
		l, err := Listen(&scriptEngine{}, "127.0.0.1:0", Config{Name: "tcp"})
		if err != nil {
			t.Fatal(err)
		}
		base := chunksOut.Load()
		client, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		go client.Write(wire) // the connection stays open: only Close ends it
		deadline := time.Now().Add(5 * time.Second)
		for l.Stats().Records == 0 || chunksOut.Load()-base < 1+aheadChunks {
			if time.Now().After(deadline) {
				t.Fatalf("the connection did not stream: %+v, %d chunks out", l.Stats(), chunksOut.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		checkJoined(t, nil, base)
	})
}

// checkJoined fails the test unless the chunks out of chunkPool are back to
// base, what was out before the connection started, and no read-ahead
// goroutine is left running once the connection returned; with its reads
// watched, also unless its read-ahead started and nothing read the
// connection after it returned.
func checkJoined(t *testing.T, conn *watchedConn, base int64) {
	t.Helper()
	if conn != nil {
		if got := conn.peak.Load(); got != 1+aheadChunks {
			t.Fatalf("reads saw at most %d chunks out, want %d: the read-ahead did not start", got, 1+aheadChunks)
		}
	}
	if n := chunksOut.Load() - base; n != 0 {
		t.Fatalf("%d chunks still out of the pool after the connection returned", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for readAheadRunning() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("a read-ahead goroutine outlived its connection")
		}
		time.Sleep(time.Millisecond)
	}
	if conn != nil {
		if n := conn.late.Load(); n != 0 {
			t.Fatalf("%d reads of the connection after it returned", n)
		}
	}
}
