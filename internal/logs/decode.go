package logs

// The allocation-free decode path. A decoder owns the mutable state the
// zero-copy parse needs — the interning table, the IP-address front, the
// unescape scratch buffer, the text block — so the hot loop allocates only for
// bounded-column values it has never seen, plus one 32 KiB block per 32 KiB of
// Domain, URL and Referer text: those three columns never settle into a
// bounded set (a fresh rare domain is a name never seen before), so they are
// carved out of an append-only block instead of being allocated or interned
// per record. Decoders are NOT safe for concurrent use; reuse them across reads
// of the same log stream via GetProxyDecoder / PutProxyDecoder so the interning
// table and the address front stay warm.
//
// Text ownership: Domain, URL and Referer come out of the decoder's TextBlock,
// so every returned string is immutable, outlives the decoder and may cross
// goroutines, and keeps its whole block reachable: a consumer that retains a
// decoded Domain, URL or Referer (or a substring of one, such as a folded
// domain) past its batch copies it first, by TextBlock's copy-to-keep rule.
//
// Buffer ownership: ReadProxyBatch appends into the caller-owned slice and
// returns it. Callers that want recycling take a buffer from GetProxyBuf
// and hand it back with PutProxyBuf once every record has been consumed:
// after the engine's IngestBatch returns, or from the routed callback of its
// AcceptBatch, which runs once the batch's routing goroutine has reduced the
// records — AcceptBatch itself returns before that. PutProxyBuf clears the
// used region so a pooled buffer never pins a previous day's strings.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"sync"
)

// maxLineBytes bounds one TSV line across every reader in this package
// (bufio.Scanner's buffer cap).
const maxLineBytes = 1024 * 1024

// ProxyDecoder carries the reusable state of the zero-copy proxy-TSV
// parse. The zero value is NOT ready; use NewProxyDecoder.
type ProxyDecoder struct {
	in      *Intern
	addrs   addrCache
	ts      tsCache
	scratch []byte     // unescape buffer, reused across fields and records
	readBuf []byte     // line-framing buffer, reused across ReadProxyBatch calls
	fields  [11][]byte // cutTSV destination, reused across records
	text    TextBlock  // Domain, URL and Referer are carved from it
}

// NewProxyDecoder returns a decoder with empty caches.
func NewProxyDecoder() *ProxyDecoder {
	return &ProxyDecoder{in: NewIntern()}
}

// ParseProxyRecord decodes one proxy TSV line (without trailing newline).
// It accepts exactly the lines the naive reference parser accepts and
// yields identical records; the differential fuzz target holds the two
// equal on arbitrary input. The line may be reused by the caller after the
// call returns — no returned string aliases it.
func (d *ProxyDecoder) ParseProxyRecord(line []byte) (ProxyRecord, error) {
	var rec ProxyRecord
	if err := d.ParseProxyInto(&rec, line); err != nil {
		return ProxyRecord{}, err
	}
	return rec, nil
}

// ParseProxyInto is ParseProxyRecord decoding directly into *rec — a slot of
// the caller's batch buffer — overwriting every field on success. On error
// *rec is left partially written; callers must discard it.
func (d *ProxyDecoder) ParseProxyInto(rec *ProxyRecord, line []byte) error {
	f := &d.fields
	if n := cutTSV(line, f[:]); n != 11 {
		return fmt.Errorf("expected 11 fields, got %d", n)
	}
	t, err := d.ts.parseTimestamp(f[0])
	if err != nil {
		return fmt.Errorf("timestamp: %w", err)
	}
	src, err := d.addrs.parse(f[2])
	if err != nil {
		return fmt.Errorf("source IP: %w", err)
	}
	var dest netip.Addr
	if len(f[4]) != 0 {
		if dest, err = d.addrs.parse(f[4]); err != nil {
			return fmt.Errorf("dest IP: %w", err)
		}
	}
	status, err := atoiField(f[7])
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	tz, err := atoiField(f[10])
	if err != nil {
		return fmt.Errorf("tz offset: %w", err)
	}
	rec.Time = t
	rec.Host = d.in.Bytes(f[1])
	rec.SrcIP = src
	// Domain, URL and Referer never settle into a bounded value set (every
	// page view mints new URLs, every fresh rare domain a new name), so they
	// are not interned but carved from the block.
	rec.Domain = d.text.CopyBytes(f[3])
	rec.DestIP = dest
	rec.URL = d.text.CopyBytes(d.unescape(f[5]))
	rec.Method = d.in.Bytes(f[6])
	rec.Status = status
	rec.UserAgent = d.in.Bytes(d.unescape(f[8]))
	rec.Referer = d.text.CopyBytes(d.unescape(f[9]))
	rec.TZOffset = tz
	return nil
}

// unescape resolves the TSV escapes in b, reusing the decoder's scratch
// buffer when any are present. The result is only valid until the next
// unescape call; consume it (intern or copy) before then.
func (d *ProxyDecoder) unescape(b []byte) []byte {
	if bytes.IndexByte(b, '\\') < 0 {
		return b
	}
	d.scratch = unescapeAppend(d.scratch[:0], b)
	return d.scratch
}

// unescapeAppend is unescapeField appending into dst — same escape
// semantics, no intermediate strings.Builder.
func unescapeAppend(dst, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			dst = append(dst, s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			dst = append(dst, '\t')
		case 'n':
			dst = append(dst, '\n')
		case '\\':
			dst = append(dst, '\\')
		default:
			dst = append(dst, '\\', s[i])
		}
	}
	return dst
}

// lineScanner is a minimal replacement for bufio.Scanner+ScanLines on the
// batch decode path: same tokens (lines split on '\n', one trailing '\r'
// stripped, unterminated final line delivered) and the same
// bufio.ErrTooLong behavior — a buffer full at maxLineBytes without a
// newline fails even if EOF is one read away, exactly as the scanner does —
// but without the scanner's per-line state machine, and with a caller-owned
// buffer so a pooled decoder reuses its framing buffer across batches.
type lineScanner struct {
	r          io.Reader
	buf        []byte
	start, end int
	err        error // sticky read error, including io.EOF
}

// next returns the next line and ok=true, or ok=false at clean EOF, or a
// framing/read error.
func (ls *lineScanner) next() ([]byte, bool, error) {
	for {
		if i := bytes.IndexByte(ls.buf[ls.start:ls.end], '\n'); i >= 0 {
			line := ls.buf[ls.start : ls.start+i]
			ls.start += i + 1
			return dropCR(line), true, nil
		}
		if ls.err != nil {
			if ls.err != io.EOF {
				return nil, false, ls.err
			}
			if ls.end > ls.start {
				line := ls.buf[ls.start:ls.end]
				ls.start = ls.end
				return dropCR(line), true, nil
			}
			return nil, false, nil
		}
		if ls.start > 0 {
			copy(ls.buf, ls.buf[ls.start:ls.end])
			ls.end -= ls.start
			ls.start = 0
		}
		if ls.end == len(ls.buf) {
			if len(ls.buf) >= maxLineBytes {
				return nil, false, bufio.ErrTooLong
			}
			grown := make([]byte, min(2*len(ls.buf), maxLineBytes))
			copy(grown, ls.buf[:ls.end])
			ls.buf = grown
		}
		n, err := ls.r.Read(ls.buf[ls.end:])
		ls.end += n
		if err != nil {
			ls.err = err
		}
	}
}

func dropCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// ProxyReader decodes a proxy-TSV stream a bounded number of records at a
// time, so a consumer that hands records on as they parse (ReplayDir) holds a
// chunk of the stream instead of all of it. It is the package's one
// framing-and-decode loop over an io.Reader: ReadProxyBatch is a single
// unbounded Next. The reader borrows the decoder — its framing buffer
// included — until the stream ends; a decoder serves one stream at a time.
type ProxyReader struct {
	d    *ProxyDecoder
	ls   lineScanner
	line int // lines delivered so far, from the start of the stream
}

// NewProxyReader returns a reader over r. A nil decoder gets a throwaway
// one — callers on a hot path should pass a warm decoder instead.
func NewProxyReader(r io.Reader, d *ProxyDecoder) *ProxyReader {
	if d == nil {
		d = NewProxyDecoder()
	}
	if d.readBuf == nil {
		d.readBuf = make([]byte, 64*1024)
	}
	return &ProxyReader{d: d, ls: lineScanner{r: r, buf: d.readBuf}}
}

// Next parses up to max further records, appending to recs (which may be
// nil) and returning the grown slice. At the end of the stream it returns
// the last records — possibly none — with io.EOF. Any other error is
// terminal and carries the 1-based line number counted from the start of
// the stream, scanner-level failures such as an over-long line included; the
// records parsed before that line are returned with it.
func (pr *ProxyReader) Next(recs []ProxyRecord, max int) ([]ProxyRecord, error) {
	d, ls := pr.d, &pr.ls
	// Whatever the exit, keep a grown framing buffer for the decoder's next
	// stream.
	defer func() { d.readBuf = ls.buf }()
	for n := 0; n < max; n++ {
		b, ok, err := ls.next()
		if err != nil {
			// The framer dies *on* the line after the last delivered one —
			// surface that position (bufio.ErrTooLong otherwise points
			// nowhere in a multi-gigabyte file).
			return recs, fmt.Errorf("line %d: %w", pr.line+1, err)
		}
		if !ok {
			return recs, io.EOF
		}
		pr.line++
		if len(recs) < cap(recs) {
			recs = recs[:len(recs)+1]
		} else {
			recs = append(recs, ProxyRecord{})
		}
		if err := d.ParseProxyInto(&recs[len(recs)-1], b); err != nil {
			return recs[:len(recs)-1], fmt.Errorf("line %d: %w", pr.line, err)
		}
	}
	return recs, nil
}

// ReadProxyBatch parses every proxy record from r, appending to recs
// (which may be nil) and returning the grown slice: one unbounded
// ProxyReader.Next, with its nil-decoder and error-position rules.
func ReadProxyBatch(r io.Reader, d *ProxyDecoder, recs []ProxyRecord) ([]ProxyRecord, error) {
	recs, err := NewProxyReader(r, d).Next(recs, math.MaxInt)
	if err == io.EOF {
		err = nil
	}
	return recs, err
}

// proxyDecoderPool recycles decoders so sequential batches (HTTP ingest
// requests, replayed day files) keep their interning table and address front
// warm. Both are bounded, so a pooled decoder's footprint is bounded for life.
var proxyDecoderPool = sync.Pool{New: func() any { return NewProxyDecoder() }}

// GetProxyDecoder takes a (possibly warm) decoder from the pool.
func GetProxyDecoder() *ProxyDecoder { return proxyDecoderPool.Get().(*ProxyDecoder) }

// PutProxyDecoder returns a decoder to the pool. The caller must not use
// it afterwards.
func PutProxyDecoder(d *ProxyDecoder) { proxyDecoderPool.Put(d) }

// proxyBufPool recycles record buffers between batches, each in a
// *[]ProxyRecord holder; proxyHolderPool recycles the emptied holders, so a
// GetProxyBuf / PutProxyBuf pair moves no fresh slice header to the heap.
var proxyBufPool, proxyHolderPool sync.Pool

// ApproxProxyLineBytes is the size of a typical encoded proxy record, which
// turns a byte count (a file size, a Content-Length) into a record count
// for GetProxyBuf and other record-buffer preallocation. Underestimating only
// costs append growth; overestimating only costs capacity.
const ApproxProxyLineBytes = 96

// GetProxyBuf returns an empty []ProxyRecord with at least the requested
// capacity, reusing a pooled buffer when one is large enough.
func GetProxyBuf(capacity int) []ProxyRecord {
	if v := proxyBufPool.Get(); v != nil {
		h := v.(*[]ProxyRecord)
		b := (*h)[:0]
		*h = nil
		proxyHolderPool.Put(h)
		if cap(b) >= capacity {
			return b
		}
		// Too small for this caller; drop it and let the GC take it rather
		// than guaranteeing append-regrowth right after "preallocating".
	}
	return make([]ProxyRecord, 0, capacity)
}

// PutProxyBuf recycles a record buffer once its records have been fully
// consumed. The used region is cleared so the pool never pins record
// strings beyond the batch that allocated them.
func PutProxyBuf(b []ProxyRecord) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	h, _ := proxyHolderPool.Get().(*[]ProxyRecord)
	if h == nil {
		h = new([]ProxyRecord)
	}
	*h = b[:0]
	proxyBufPool.Put(h)
}

// DNSDecoder is the zero-copy decoder for DNS TSV records.
type DNSDecoder struct {
	in    *Intern
	addrs addrCache
	ts    tsCache
}

// NewDNSDecoder returns a decoder with empty caches.
func NewDNSDecoder() *DNSDecoder {
	return &DNSDecoder{in: NewIntern()}
}

// ParseDNSRecord decodes one DNS TSV line; same contract as
// ParseProxyRecord (naive-equivalent accept/reject, no aliasing of line).
func (d *DNSDecoder) ParseDNSRecord(line []byte) (DNSRecord, error) {
	var f [7][]byte
	if n := cutTSV(line, f[:]); n != 7 {
		return DNSRecord{}, fmt.Errorf("expected 7 fields, got %d", n)
	}
	t, err := d.ts.parseTimestamp(f[0])
	if err != nil {
		return DNSRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	src, err := d.addrs.parse(f[1])
	if err != nil {
		return DNSRecord{}, fmt.Errorf("source IP: %w", err)
	}
	typ, err := parseRecordTypeBytes(f[3])
	if err != nil {
		return DNSRecord{}, err
	}
	var answer netip.Addr
	if len(f[4]) != 0 {
		if answer, err = d.addrs.parse(f[4]); err != nil {
			return DNSRecord{}, fmt.Errorf("answer IP: %w", err)
		}
	}
	return DNSRecord{
		Time:     t,
		SrcIP:    src,
		Query:    d.in.Bytes(f[2]),
		Type:     typ,
		Answer:   answer,
		Internal: boolFieldSet(f[5]),
		Server:   boolFieldSet(f[6]),
	}, nil
}

// parseRecordTypeBytes is ParseRecordType without the string conversion on
// the match path; the error path (already allocating) delegates for the
// identical message.
func parseRecordTypeBytes(b []byte) (RecordType, error) {
	for t, name := range recordTypeNames {
		if string(b) == name {
			return t, nil
		}
	}
	return ParseRecordType(string(b))
}

func boolFieldSet(b []byte) bool { return len(b) == 1 && b[0] == '1' }

// FlowDecoder is the zero-copy decoder for NetFlow TSV records.
type FlowDecoder struct {
	in    *Intern
	addrs addrCache
	ts    tsCache
}

// NewFlowDecoder returns a decoder with empty caches.
func NewFlowDecoder() *FlowDecoder {
	return &FlowDecoder{in: NewIntern()}
}

// ParseFlowRecord decodes one flow TSV line; same contract as
// ParseProxyRecord (naive-equivalent accept/reject, no aliasing of line).
func (d *FlowDecoder) ParseFlowRecord(line []byte) (FlowRecord, error) {
	var f [7][]byte
	if n := cutTSV(line, f[:]); n != 7 {
		return FlowRecord{}, fmt.Errorf("expected 7 fields, got %d", n)
	}
	t, err := d.ts.parseTimestamp(f[0])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	src, err := d.addrs.parse(f[1])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("src IP: %w", err)
	}
	dst, err := d.addrs.parse(f[2])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("dst IP: %w", err)
	}
	port, err := uintField(f[3], 16)
	if err != nil {
		return FlowRecord{}, fmt.Errorf("port: %w", err)
	}
	nbytes, err := atoiField(f[5])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("bytes: %w", err)
	}
	packets, err := atoiField(f[6])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("packets: %w", err)
	}
	return FlowRecord{
		Time: t, SrcIP: src, DstIP: dst, DstPort: uint16(port),
		Protocol: d.in.Bytes(f[4]), Bytes: int64(nbytes), Packets: int64(packets),
	}, nil
}
