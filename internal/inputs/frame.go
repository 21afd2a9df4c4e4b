package inputs

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// Framing selects how records are delimited on a stream connection.
type Framing int

const (
	// FramingNewline delimits frames with '\n'; a trailing '\r' is
	// stripped, so both Unix and CRLF senders work.
	FramingNewline Framing = iota
	// FramingOctet is RFC 6587 octet counting: each frame is
	// "LENGTH SP payload" where LENGTH is the decimal byte count of the
	// payload. This is what syslog transports emit over TCP, and it is
	// the only framing that can carry payloads with embedded newlines.
	FramingOctet
)

// DefaultMaxFrameBytes bounds a single frame when Config.MaxFrameBytes is
// zero. It matches the TSV codec's own line cap, so any record the HTTP
// ingest path would accept fits in one frame.
const DefaultMaxFrameBytes = 1 << 20

// Frame-splitter errors. All of them are terminal for the connection that
// produced them: a sender whose framing is broken cannot be resynchronized,
// so the listener refuses cleanly instead of guessing at record boundaries.
var (
	// errFrameTooBig reports a frame over the configured cap — either a
	// newline never arrived within MaxFrameBytes, or an octet count
	// promised more than MaxFrameBytes. Treated like the per-connection
	// byte cap: the sender is hostile or misconfigured.
	errFrameTooBig = errors.New("inputs: frame exceeds the frame byte cap")
	// errBadOctetHeader reports an RFC 6587 header that is not
	// "1*9DIGIT SP": a non-digit length, a missing space, or a length
	// field long enough to overflow. There is no way to find the next
	// frame boundary after this, so the connection must close.
	errBadOctetHeader = errors.New("inputs: malformed octet-count header")
	// errTornFrame reports a connection that ended mid-frame: bytes after
	// the last complete frame with no terminator (newline framing) or
	// fewer payload bytes than the octet count promised. The complete
	// frames before the tear were already delivered.
	errTornFrame = errors.New("inputs: connection ended mid-frame")
)

// maxOctetDigits caps the RFC 6587 length field. Nine digits keep the
// parsed count well inside int range on every platform; real frames are
// bounded by MaxFrameBytes long before that.
const maxOctetDigits = 9

// readChunk is the scanner's initial buffer and therefore the size of one
// socket read: large enough that a saturated connection pays one read(2),
// one compaction and one round of counter updates per few hundred records
// rather than per few dozen, small enough to sit in L2 while the chunk's
// frames are decoded out of it. A constant, not a Config field: no listener
// has a reason to want another value, and the frame cap — the limit that is
// policy — is independent of it.
const readChunk = 64 << 10

// frameScanner splits a stream into frames a chunk at a time: fill reads
// whatever the connection has ready (up to the buffer's free space), next
// cuts the buffered frames one by one without touching the reader. Frames
// may arrive split across arbitrarily many reads (TCP segmentation); the
// partial tail of a chunk stays buffered until a later fill completes it.
// The returned frame slices alias the internal buffer and are valid only
// until the next fill.
type frameScanner struct {
	r       io.Reader
	framing Framing
	max     int
	buf     []byte
	pooled  *[]byte // chunkPool's holder of buf's first allocation
	start   int     // index of the first unconsumed byte in buf
	eof     bool
}

// chunkPool recycles the readChunk buffers of the scanners and read-aheads
// across connections, each in a *[]byte, so a short connection — one syslog
// message — does not allocate 64 KiB. Take and return them with getChunk and
// putChunk.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, readChunk)
	return &b
}}

// chunksOut counts the readChunk buffers taken from chunkPool and not yet put
// back, so a test can hold every return path of a connection to giving back
// what it took.
var chunksOut atomic.Int64

func getChunk() *[]byte {
	chunksOut.Add(1)
	return chunkPool.Get().(*[]byte)
}

func putChunk(h *[]byte) {
	chunkPool.Put(h)
	chunksOut.Add(-1)
}

func newFrameScanner(r io.Reader, framing Framing, maxFrame int) *frameScanner {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	h := getChunk()
	return &frameScanner{r: r, framing: framing, max: maxFrame, buf: (*h)[:0], pooled: h}
}

// release hands the readChunk buffer back to the pool; the scanner must not
// be used afterwards. The holder still points at the first allocation, so a
// buffer that a long frame grew is left to the GC and the pool never pins
// memory toward the frame cap.
func (fs *frameScanner) release() {
	putChunk(fs.pooled)
	fs.buf, fs.pooled = nil, nil
}

// buffered reports whether unconsumed bytes sit in the scanner's buffer —
// the listener flushes its pending batch to the engine before a read that
// would block, so a slow trickle of records is never parked in the batch
// buffer waiting for peers.
func (fs *frameScanner) buffered() bool { return fs.start < len(fs.buf) }

// next cuts the next complete frame out of the buffer. ok=false means the
// buffered bytes hold no complete frame and the caller must fill; a non-nil
// error is terminal. Whether a frame is refused as over the cap depends only
// on the frame, never on how the reads chunked it.
func (fs *frameScanner) next() (frame []byte, ok bool, err error) {
	b := fs.buf[fs.start:]
	if fs.framing == FramingOctet {
		n, hdr, valid, complete := parseOctetHeader(b)
		switch {
		case !valid:
			return nil, false, errBadOctetHeader
		case !complete:
			return nil, false, nil
		case n > fs.max:
			return nil, false, errFrameTooBig
		case len(b) < hdr+n:
			return nil, false, nil
		}
		fs.start += hdr + n
		return b[hdr : hdr+n], true, nil
	}
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		i = len(b) // the partial line so far counts against the cap too
	}
	if i > fs.max {
		return nil, false, errFrameTooBig
	}
	if i == len(b) {
		return nil, false, nil
	}
	fs.start += i + 1
	if i > 0 && b[i-1] == '\r' {
		return b[:i-1], true, nil
	}
	return b[:i], true, nil
}

// parseOctetHeader scans an RFC 6587 "LENGTH SP" prefix. ok=false means the
// bytes can never become a valid header (close the connection);
// complete=false with ok=true means more bytes are needed.
func parseOctetHeader(b []byte) (n, hdr int, ok, complete bool) {
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if i == maxOctetDigits {
			return 0, 0, false, false
		}
		n = n*10 + int(b[i]-'0')
		i++
	}
	switch {
	case i == len(b):
		// All digits so far; the space may still arrive.
		return 0, 0, true, false
	case i == 0 || b[i] != ' ':
		// Leading non-digit, or digits not followed by a space.
		return 0, 0, false, false
	}
	return n, i + 1, true, true
}

// fill reads the next chunk behind the unconsumed tail, which it first
// moves to the front of the buffer; the buffer grows only while a single
// frame outgrows it, so it stays bounded by the frame cap rather than the
// connection's history. At the end of the stream it returns io.EOF, or
// errTornFrame when bytes of an unfinished frame remain.
func (fs *frameScanner) fill() error {
	if fs.eof {
		if fs.buffered() {
			return errTornFrame
		}
		return io.EOF
	}
	if fs.start > 0 {
		fs.buf = fs.buf[:copy(fs.buf, fs.buf[fs.start:])]
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
