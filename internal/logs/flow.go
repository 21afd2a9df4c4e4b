package logs

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"time"
)

// FlowRecord is one NetFlow-style flow summary. The paper names NetFlow as
// one of the log types its infection patterns survive in (§II-C): rare
// destinations, small host fan-in and periodic connections are all visible
// at flow granularity even without domain names — the destination identity
// is the server address itself.
type FlowRecord struct {
	Time     time.Time
	SrcIP    netip.Addr
	DstIP    netip.Addr
	DstPort  uint16
	Protocol string // "tcp" or "udp"
	Bytes    int64
	Packets  int64
}

// AppendFlow appends the TSV encoding of r — one line, including the
// trailing newline — to dst and returns the extended slice.
func AppendFlow(dst []byte, r FlowRecord) []byte {
	dst = r.Time.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, '\t')
	dst = appendAddr(dst, r.SrcIP)
	dst = append(dst, '\t')
	dst = appendAddr(dst, r.DstIP)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(r.DstPort), 10)
	dst = append(dst, '\t')
	dst = append(dst, r.Protocol...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Bytes, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Packets, 10)
	return append(dst, '\n')
}

// FlowWriter streams FlowRecords as TSV.
type FlowWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// NewFlowWriter returns a writer that buffers output to w.
func NewFlowWriter(w io.Writer) *FlowWriter {
	return &FlowWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (fw *FlowWriter) Write(r FlowRecord) error {
	fw.scratch = AppendFlow(fw.scratch[:0], r)
	_, err := fw.w.Write(fw.scratch)
	return err
}

// Flush flushes buffered records.
func (fw *FlowWriter) Flush() error { return fw.w.Flush() }

// ReadFlows parses every flow record from r, invoking fn for each — the
// future live-netflow ingest path, so it decodes through the same
// zero-copy primitives as the proxy and DNS readers.
func ReadFlows(r io.Reader, fn func(FlowRecord) error) error {
	d := NewFlowDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		rec, err := d.ParseFlowRecord(sc.Bytes())
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
