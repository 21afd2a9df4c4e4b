// Package inputs implements the daemon's live ingestion listeners: framed
// TCP/syslog feeds of proxy TSV records and a netflow feed, decoded through
// the pooled zero-copy codec in internal/logs and handed to the streaming
// engine in batches: each connection decodes its next batch while the
// engine routes the previous ones, and, once one read fills its buffer,
// reads the socket ahead of its decoding on a goroutine of its own (see
// HandleConn).
//
// # Framing
//
// Connections carry one record per frame, delimited either by newlines or
// by RFC 6587 octet counting ("LENGTH SP payload", the syslog-over-TCP
// transport). Frames buffer across reads (TCP segmentation never splits a
// record), are bounded by a frame byte cap, and a connection whose framing
// breaks — torn frame, hostile octet count — is refused cleanly: the
// complete records before the break are delivered, the connection closes,
// and the failure is counted.
//
// # Backpressure
//
// TCP cannot answer 429 the way the HTTP ingest path does, so the policy
// is explicit: batches are handed to the engine at batch boundaries, and
// when Engine.Lagging() reports a shard queue at the engine's shed
// threshold — ceil(0.9 · QueueDepth) queued batches, QueueDepth being
// reprod's -queue — the listener sheds the parsed batch instead of waiting
// for the engine, counted in SheddedRecords and surfaced through /stats.
// The decision is taken on the connection's goroutine just before the batch
// would be accepted, as POST /ingest takes it before its body. Decoding runs
// ahead of routing only as far as the engine lets any caller: AcceptBatch
// blocks while 2 × Shards accepted batches are still routing, and that bound
// is the only lead a connection has. A sender that outruns the engine
// therefore loses whole batches, never fractions of them, and the loss is
// observable. Records refused by the engine itself (no open day) are counted
// separately as RejectedRecords.
package inputs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/logs"
)

// DefaultBatchRecords is the engine hand-off granularity when
// Config.BatchRecords is zero: large enough to amortize the engine lock,
// small enough that shedding one batch is a bounded loss.
const DefaultBatchRecords = 512

// Ingester is the engine-facing surface a listener needs; *stream.Engine
// satisfies it. Keeping the dependency to this interface lets the listener
// tests pin drop counts against a scripted engine. An Ingester that also has
// the engine's AcceptBatch is handed batches through it, so a connection
// decodes while the engine routes; any other gets IngestBatch, one batch at
// a time.
type Ingester interface {
	// IngestBatch atomically accepts a batch of proxy records.
	IngestBatch([]logs.ProxyRecord) error
	// Lagging reports that the engine's shard queues are near capacity;
	// the listener sheds at the next batch boundary while it holds.
	Lagging() bool
}

// batchAcceptor is the engine's split ingest (*stream.Engine's AcceptBatch):
// it returns once the batch is accepted and calls routed once the engine no
// longer reads it. A listener uses it when the engine has it, and otherwise
// IngestBatch in the same shape, routed called as it returns.
type batchAcceptor interface {
	AcceptBatch(recs []logs.ProxyRecord, routed func()) error
}

// Format selects the wire payload carried by each frame.
type Format int

const (
	// FormatProxy frames carry one TSV proxy record (the internal/logs
	// codec — the same lines POST /ingest accepts).
	FormatProxy Format = iota
	// FormatFlow frames carry one TSV netflow record, decoded through
	// logs.FlowDecoder and embedded into the engine's proxy-record
	// namespace (see FlowDomain).
	FormatFlow
)

// Config parameterizes a listener.
type Config struct {
	// Name labels the listener in /stats ("tcp", "syslog", "flow").
	Name string
	// Framing selects newline or RFC 6587 octet-counted frames.
	Framing Framing
	// Format selects the per-frame payload (proxy TSV or netflow TSV).
	Format Format
	// SyslogHeader strips an RFC 5424 header ("<PRI>1 TS HOST APP PROCID
	// MSGID - MSG", nil structured data) from each frame before decoding,
	// so a syslog shipper can relay raw TSV records as the message body.
	SyslogHeader bool
	// MaxFrameBytes bounds one frame (default DefaultMaxFrameBytes).
	MaxFrameBytes int
	// MaxConnBytes caps the bytes read from one connection over its
	// lifetime (0 = unlimited); a connection at the cap is closed and
	// counted in OverLimitConns.
	MaxConnBytes int64
	// BatchRecords is the engine hand-off granularity (default
	// DefaultBatchRecords).
	BatchRecords int
	// Logf, when set, receives connection-level failures (nil = silent).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of a listener's counters, shaped for
// the daemon's /stats endpoint.
type Stats struct {
	Name          string `json:"name"`
	Addr          string `json:"addr,omitempty"`
	ConnsAccepted int64  `json:"connsAccepted"`
	ConnsActive   int64  `json:"connsActive"`
	ReadBytes     int64  `json:"readBytes"`
	Frames        int64  `json:"frames"`
	// Records counts records the engine accepted.
	Records int64 `json:"records"`
	// SheddedRecords counts records dropped at a batch boundary because
	// the engine was lagging — the TCP analogue of an HTTP 429.
	SheddedRecords int64 `json:"sheddedRecords"`
	// RejectedRecords counts records the engine refused (no open day).
	RejectedRecords int64 `json:"rejectedRecords"`
	// MalformedFrames counts frames that failed framing or decoding; each
	// one also closed its connection.
	MalformedFrames int64 `json:"malformedFrames"`
	// FilteredFlows counts flow frames dropped by the netflow reduction's
	// own pre-filters (non-web port, internal destination) — by design,
	// not by failure.
	FilteredFlows int64 `json:"filteredFlows,omitempty"`
	// OverLimitConns counts connections closed for exceeding MaxConnBytes
	// or promising a frame over MaxFrameBytes.
	OverLimitConns int64 `json:"overLimitConns"`
}

// Listener accepts framed-record connections and feeds an engine. Create
// with NewListener, bind with Listen (or drive single connections with
// HandleConn), stop with Close.
type Listener struct {
	eng    Ingester
	accept func(recs []logs.ProxyRecord, routed func()) error
	cfg    Config
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	readBytes     atomic.Int64
	frames        atomic.Int64
	records       atomic.Int64
	shedded       atomic.Int64
	rejected      atomic.Int64
	malformed     atomic.Int64
	filtered      atomic.Int64
	overLimit     atomic.Int64
}

// NewListener builds an unbound listener; Listen binds it, or HandleConn
// drives individual connections directly (what the equivalence tests do).
func NewListener(eng Ingester, cfg Config) *Listener {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = DefaultBatchRecords
	}
	l := &Listener{eng: eng, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if a, ok := eng.(batchAcceptor); ok {
		l.accept = a.AcceptBatch
	} else {
		l.accept = func(recs []logs.ProxyRecord, routed func()) error {
			err := eng.IngestBatch(recs)
			routed()
			return err
		}
	}
	return l
}

// Listen binds addr and starts accepting connections.
func Listen(eng Ingester, addr string, cfg Config) (*Listener, error) {
	l := NewListener(eng, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("inputs/%s: %w", cfg.Name, err)
	}
	l.ln = ln
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address (nil before Listen).
func (l *Listener) Addr() net.Addr {
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to deliver their pending batches to the engine and exit.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	open := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		open = append(open, c)
	}
	l.mu.Unlock()
	var err error
	if l.ln != nil {
		err = l.ln.Close()
	}
	// Closing a connection unblocks its handler's pending read; the
	// handler then flushes the complete records it already parsed. Done
	// outside the mutex: conn.Close is network I/O.
	for _, c := range open {
		c.Close()
	}
	l.wg.Wait()
	return err
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Listener) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			if !l.isClosed() && !errors.Is(err, net.ErrClosed) {
				l.logf("inputs/%s: accept: %v", l.cfg.Name, err)
			}
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		l.connsAccepted.Add(1)
		go func() {
			defer l.wg.Done()
			defer func() {
				l.mu.Lock()
				delete(l.conns, c)
				l.mu.Unlock()
			}()
			if err := l.HandleConn(c); err != nil && !l.isClosed() {
				l.logf("inputs/%s: %s: %v", l.cfg.Name, c.RemoteAddr(), err)
			}
		}()
	}
}

// HandleConn runs one connection to completion. Exported so tests
// (including the batch-equivalence suite) can drive a single framed
// connection without a bound socket. Returns nil on a clean end of stream.
//
// The connection is one loop on the calling goroutine: read a chunk, cut and
// decode every complete frame of it straight into a pooled batch buffer, and
// hand each batch to the engine's AcceptBatch, whose routing goroutine puts
// the buffer back once the records are reduced — so one batch decodes while
// the previous ones route, and the engine's in-flight bound is the only lead
// the connection has on routing.
//
// The socket is read on the loop until one read fills all the room the
// frame scanner offered (its 64 KiB chunk less a partial frame): then the
// sender has more ready than a read takes, and a read-ahead goroutine takes
// the reads over, filling pooled 64 KiB chunks that the loop copies into
// the scanner in read order, the read error after the bytes before it. It
// owns three chunks, so it leads the loop by at most two and a byte-capped
// connection is read at most 192 KiB past MaxConnBytes; the cap and
// ReadBytes still count the bytes the scanner takes. A connection whose
// reads never fill the room — one syslog message, a trickle — never starts
// it.
//
// Whatever the terminal condition, the records that parsed before it are
// handed over, and HandleConn returns only once the read-ahead, if it
// started, has stopped (the connection is closed to end a read in progress)
// and every batch of the connection has been routed; only then do its
// decoder, frame buffer and chunks go back to their pools.
func (l *Listener) HandleConn(c net.Conn) error {
	defer c.Close()
	l.connsActive.Add(1)
	defer l.connsActive.Add(-1)

	rd := newConnReader(c, l)
	fs := newFrameScanner(&rd.count, l.cfg.Framing, l.cfg.MaxFrameBytes)
	var dec frameDecoder
	if l.cfg.Format == FormatFlow {
		dec = newFlowDecoder(l)
	} else {
		dec = newProxyFrameDecoder(l)
	}
	var routing sync.WaitGroup
	defer func() {
		rd.stop()
		routing.Wait()
		dec.release()
		fs.release()
	}()

	pending, err := l.readFrames(fs, dec, &routing)
	l.flush(pending, &routing)
	switch {
	case err == io.EOF:
		return nil
	case errors.Is(err, errConnBytes) || errors.Is(err, errFrameTooBig):
		l.overLimit.Add(1)
	case errors.Is(err, errBadOctetHeader) || errors.Is(err, errTornFrame):
		l.malformed.Add(1)
	}
	return err
}

// readFrames is the connection's loop: read a chunk, decode every complete
// frame of it in place into the next slot of the pending batch, flush the
// batch when it is full or once the buffer is drained to a frame boundary.
// It returns the batch pending at the connection's terminal condition and
// the condition: io.EOF for a clean end of stream. frames counts the frames
// cut since the counter was last bumped — once per chunk, not once per frame.
func (l *Listener) readFrames(fs *frameScanner, dec frameDecoder, routing *sync.WaitGroup) ([]logs.ProxyRecord, error) {
	recs := logs.GetProxyBuf(l.cfg.BatchRecords)
	frames := int64(0)
	defer func() { l.frames.Add(frames) }()
	for {
		for {
			frame, ok, err := fs.next()
			if err != nil {
				return recs, err
			}
			if !ok {
				break
			}
			if len(frame) == 0 {
				continue // tolerate keep-alive blank lines
			}
			frames++
			// The buffer holds BatchRecords and the batch is flushed at
			// that boundary, so taking a slot never reallocates.
			n := len(recs)
			recs = recs[:n+1]
			keep, err := dec.decode(frame, &recs[n])
			if err != nil {
				// One undecodable frame poisons the stream: deliver what
				// parsed cleanly before it, then refuse the connection. The
				// slot may hold part of the bad record; the buffer is cleared
				// only up to its length, so clear the slot here.
				l.malformed.Add(1)
				recs[n] = logs.ProxyRecord{}
				return recs[:n], fmt.Errorf("inputs/%s: %w", l.cfg.Name, err)
			}
			if !keep {
				recs = recs[:n]
			} else if n+1 >= l.cfg.BatchRecords {
				l.flush(recs, routing)
				recs = logs.GetProxyBuf(l.cfg.BatchRecords)
			}
		}
		l.frames.Add(frames)
		frames = 0
		// Hand off eagerly when the next read would block — a trickle of
		// records must not sit parked waiting for peers to fill the batch.
		if len(recs) > 0 && !fs.buffered() {
			l.flush(recs, routing)
			recs = logs.GetProxyBuf(l.cfg.BatchRecords)
		}
		if err := fs.fill(); err != nil {
			return recs, err
		}
	}
}

// flush hands one batch, and with it the batch's buffer, to the engine under
// the backpressure policy: a batch that comes up while the engine lags is
// shed, and engine refusals are counted; neither is fatal to the connection.
// routing counts the connection's batches until they are routed.
func (l *Listener) flush(batch []logs.ProxyRecord, routing *sync.WaitGroup) {
	if len(batch) == 0 {
		logs.PutProxyBuf(batch)
		return
	}
	if l.eng.Lagging() {
		l.shedded.Add(int64(len(batch)))
		logs.PutProxyBuf(batch)
		return
	}
	routing.Add(1)
	if err := l.accept(batch, func() { logs.PutProxyBuf(batch); routing.Done() }); err != nil {
		// Engine refusals (no open day, shutdown) reject the whole batch
		// atomically. Keep the connection: the operator may be about to
		// open the day, and the loss is counted either way.
		l.rejected.Add(int64(len(batch)))
		return
	}
	l.records.Add(int64(len(batch)))
}

// Stats snapshots the listener's counters.
func (l *Listener) Stats() Stats {
	st := Stats{
		Name:            l.cfg.Name,
		ConnsAccepted:   l.connsAccepted.Load(),
		ConnsActive:     l.connsActive.Load(),
		ReadBytes:       l.readBytes.Load(),
		Frames:          l.frames.Load(),
		Records:         l.records.Load(),
		SheddedRecords:  l.shedded.Load(),
		RejectedRecords: l.rejected.Load(),
		MalformedFrames: l.malformed.Load(),
		FilteredFlows:   l.filtered.Load(),
		OverLimitConns:  l.overLimit.Load(),
	}
	if l.ln != nil {
		st.Addr = l.ln.Addr().String()
	}
	return st
}

// errConnBytes reports a connection that read past Config.MaxConnBytes.
var errConnBytes = errors.New("inputs: connection exceeded the per-connection byte cap")

// countingReader enforces the per-connection byte cap and feeds the
// listener's ReadBytes counter.
type countingReader struct {
	r     io.Reader
	limit int64 // 0 = unlimited
	read  int64
	total *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	if cr.limit > 0 {
		if cr.read >= cr.limit {
			return 0, errConnBytes
		}
		if rem := cr.limit - cr.read; int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	n, err := cr.r.Read(p)
	cr.read += int64(n)
	cr.total.Add(int64(n))
	return n, err
}

// frameDecoder decodes one frame into a slot of the pending batch,
// overwriting every field of *rec. keep=false drops the record by design (a
// flow outside the netflow reduction's filters) and leaves *rec untouched,
// so a batch holds no record data past its length; an error poisons the
// connection. Implementations own pooled decode state released by release().
type frameDecoder interface {
	decode(frame []byte, rec *logs.ProxyRecord) (keep bool, err error)
	release()
}

// proxyFrameDecoder decodes TSV proxy frames through the pooled zero-copy
// decoder — the same path POST /ingest runs, so interning keeps the hosts
// and user agents of a long-lived connection warm.
type proxyFrameDecoder struct {
	dec    *logs.ProxyDecoder
	syslog bool
}

func newProxyFrameDecoder(l *Listener) *proxyFrameDecoder {
	return &proxyFrameDecoder{dec: logs.GetProxyDecoder(), syslog: l.cfg.SyslogHeader}
}

func (p *proxyFrameDecoder) decode(frame []byte, rec *logs.ProxyRecord) (bool, error) {
	if p.syslog {
		msg, err := stripSyslogHeader(frame)
		if err != nil {
			return false, err
		}
		frame = msg
	}
	return true, p.dec.ParseProxyInto(rec, frame)
}

func (p *proxyFrameDecoder) release() { logs.PutProxyDecoder(p.dec) }

// errBadSyslogHeader reports a frame that does not carry the supported
// RFC 5424 shape.
var errBadSyslogHeader = errors.New("inputs: malformed RFC 5424 syslog header")

// stripSyslogHeader removes "<PRI>VERSION SP TIMESTAMP SP HOSTNAME SP
// APP-NAME SP PROCID SP MSGID SP -" and returns the MSG that follows. Only
// nil ("-") structured data is supported: shippers relaying raw records do
// not attach SD elements, and skipping bracketed SD safely would require
// parsing its escaping rules.
func stripSyslogHeader(b []byte) ([]byte, error) {
	if len(b) == 0 || b[0] != '<' {
		return nil, errBadSyslogHeader
	}
	end := -1
	for i := 1; i < len(b) && i <= 4; i++ {
		if b[i] == '>' {
			end = i
			break
		}
		if b[i] < '0' || b[i] > '9' {
			return nil, errBadSyslogHeader
		}
	}
	if end < 2 { // at least one PRI digit
		return nil, errBadSyslogHeader
	}
	b = b[end+1:]
	// Six space-terminated tokens: VERSION TIMESTAMP HOSTNAME APP-NAME
	// PROCID MSGID.
	for t := 0; t < 6; t++ {
		j := bytes.IndexByte(b, ' ')
		if j <= 0 {
			return nil, errBadSyslogHeader
		}
		b = b[j+1:]
	}
	// Nil structured data, then the message.
	if len(b) >= 2 && b[0] == '-' && b[1] == ' ' {
		return b[2:], nil
	}
	return nil, errBadSyslogHeader
}
