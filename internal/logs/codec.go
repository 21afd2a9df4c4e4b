package logs

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// The TSV codec mirrors how the raw datasets are stored on disk: one record
// per line, tab-separated fields, streamed so that multi-gigabyte files
// never have to fit in memory. cmd/datagen writes this format and the
// normalization pipeline reads it back.
//
// Decode runs through the zero-copy path (cut.go, decode.go); the naive
// parsers at the bottom of this file are retained as the differential-fuzz
// reference and are not called on any hot path. Encode runs through the
// Append* functions, which produce bytes identical to the fmt.Fprintf
// write path they replaced.

// timeLayout keeps full sub-second precision: beacon jitter is fractional
// and the detectors' interval math must survive a disk round trip.
const timeLayout = time.RFC3339Nano

// AppendDNS appends the TSV encoding of r — one line, including the
// trailing newline — to dst and returns the extended slice.
func AppendDNS(dst []byte, r DNSRecord) []byte {
	dst = r.Time.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, '\t')
	dst = appendAddr(dst, r.SrcIP)
	dst = append(dst, '\t')
	dst = append(dst, r.Query...)
	dst = append(dst, '\t')
	dst = append(dst, r.Type.String()...)
	dst = append(dst, '\t')
	if r.Answer.IsValid() {
		dst = r.Answer.AppendTo(dst)
	}
	dst = append(dst, '\t')
	dst = append(dst, boolField(r.Internal)...)
	dst = append(dst, '\t')
	dst = append(dst, boolField(r.Server)...)
	return append(dst, '\n')
}

// DNSWriter streams DNSRecords to an io.Writer in TSV form.
type DNSWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// NewDNSWriter returns a writer that buffers output to w.
func NewDNSWriter(w io.Writer) *DNSWriter {
	return &DNSWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (dw *DNSWriter) Write(r DNSRecord) error {
	dw.scratch = AppendDNS(dw.scratch[:0], r)
	_, err := dw.w.Write(dw.scratch)
	return err
}

// Flush flushes buffered records to the underlying writer.
func (dw *DNSWriter) Flush() error { return dw.w.Flush() }

// ReadDNS parses every DNS record from r, invoking fn for each. It stops at
// the first malformed line or when fn returns an error. Decode state
// (interning, address cache) lives for the duration of the call.
func ReadDNS(r io.Reader, fn func(DNSRecord) error) error {
	d := NewDNSDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		rec, err := d.ParseDNSRecord(sc.Bytes())
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// AppendProxy appends the TSV encoding of r — one line, including the
// trailing newline — to dst and returns the extended slice.
func AppendProxy(dst []byte, r ProxyRecord) []byte {
	dst = r.Time.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, '\t')
	dst = append(dst, r.Host...)
	dst = append(dst, '\t')
	dst = appendAddr(dst, r.SrcIP)
	dst = append(dst, '\t')
	dst = append(dst, r.Domain...)
	dst = append(dst, '\t')
	if r.DestIP.IsValid() {
		dst = r.DestIP.AppendTo(dst)
	}
	dst = append(dst, '\t')
	dst = escapeAppend(dst, r.URL)
	dst = append(dst, '\t')
	dst = append(dst, r.Method...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, '\t')
	dst = escapeAppend(dst, r.UserAgent)
	dst = append(dst, '\t')
	dst = escapeAppend(dst, r.Referer)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.TZOffset), 10)
	return append(dst, '\n')
}

// ProxyWriter streams ProxyRecords to an io.Writer in TSV form.
type ProxyWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// NewProxyWriter returns a writer that buffers output to w.
func NewProxyWriter(w io.Writer) *ProxyWriter {
	return &ProxyWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (pw *ProxyWriter) Write(r ProxyRecord) error {
	pw.scratch = AppendProxy(pw.scratch[:0], r)
	_, err := pw.w.Write(pw.scratch)
	return err
}

// Flush flushes buffered records to the underlying writer.
func (pw *ProxyWriter) Flush() error { return pw.w.Flush() }

// ReadProxy parses every proxy record from r, invoking fn for each. Decode
// state (interning, address cache) lives for the duration of the call;
// batch consumers should prefer ReadProxyBatch with a pooled decoder.
func ReadProxy(r io.Reader, fn func(ProxyRecord) error) error {
	d := NewProxyDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		rec, err := d.ParseProxyRecord(sc.Bytes())
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// appendAddr appends the textual address exactly as the %s verb printed
// it, including the "invalid IP" placeholder for the zero Addr (which
// Addr.AppendTo would silently skip).
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.IsValid() {
		return a.AppendTo(dst)
	}
	return append(dst, "invalid IP"...)
}

func boolField(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// escapeAppend protects the TSV framing against tabs and newlines inside
// free-text fields (URLs and user-agent strings can contain anything),
// appending into dst. Byte-compatible with escapeField.
func escapeAppend(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// escapeField is the string-returning escape used by the naive reference
// path and tests.
func escapeField(s string) string {
	r := strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n")
	return r.Replace(s)
}

func unescapeField(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
