package logs

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// The naive line parsers are the reference implementations the differential
// fuzz targets (FuzzParseProxyLine, FuzzParseDNSLine, FuzzParseFlowLine) hold
// the zero-copy decoders to: same accept/reject decision, same record values.
// No production code calls them.

// parseProxyLine is the straightforward Split/time.Parse proxy-line parser
// the zero-copy path replaced.
func parseProxyLine(s string) (ProxyRecord, error) {
	fields := strings.Split(s, "\t")
	if len(fields) != 11 {
		return ProxyRecord{}, fmt.Errorf("expected 11 fields, got %d", len(fields))
	}
	t, err := time.Parse(timeLayout, fields[0])
	if err != nil {
		return ProxyRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	src, err := netip.ParseAddr(fields[2])
	if err != nil {
		return ProxyRecord{}, fmt.Errorf("source IP: %w", err)
	}
	var dest netip.Addr
	if fields[4] != "" {
		dest, err = netip.ParseAddr(fields[4])
		if err != nil {
			return ProxyRecord{}, fmt.Errorf("dest IP: %w", err)
		}
	}
	status, err := strconv.Atoi(fields[7])
	if err != nil {
		return ProxyRecord{}, fmt.Errorf("status: %w", err)
	}
	tz, err := strconv.Atoi(fields[10])
	if err != nil {
		return ProxyRecord{}, fmt.Errorf("tz offset: %w", err)
	}
	return ProxyRecord{
		Time:      t,
		Host:      fields[1],
		SrcIP:     src,
		Domain:    fields[3],
		DestIP:    dest,
		URL:       unescapeField(fields[5]),
		Method:    fields[6],
		Status:    status,
		UserAgent: unescapeField(fields[8]),
		Referer:   unescapeField(fields[9]),
		TZOffset:  tz,
	}, nil
}

// parseDNSLine is the naive DNS parser.
func parseDNSLine(s string) (DNSRecord, error) {
	fields := strings.Split(s, "\t")
	if len(fields) != 7 {
		return DNSRecord{}, fmt.Errorf("expected 7 fields, got %d", len(fields))
	}
	t, err := time.Parse(timeLayout, fields[0])
	if err != nil {
		return DNSRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	src, err := netip.ParseAddr(fields[1])
	if err != nil {
		return DNSRecord{}, fmt.Errorf("source IP: %w", err)
	}
	typ, err := ParseRecordType(fields[3])
	if err != nil {
		return DNSRecord{}, err
	}
	var answer netip.Addr
	if fields[4] != "" {
		answer, err = netip.ParseAddr(fields[4])
		if err != nil {
			return DNSRecord{}, fmt.Errorf("answer IP: %w", err)
		}
	}
	return DNSRecord{
		Time:     t,
		SrcIP:    src,
		Query:    fields[2],
		Type:     typ,
		Answer:   answer,
		Internal: fields[5] == "1",
		Server:   fields[6] == "1",
	}, nil
}

// parseFlowLine is the naive flow parser.
func parseFlowLine(s string) (FlowRecord, error) {
	fields := strings.Split(s, "\t")
	if len(fields) != 7 {
		return FlowRecord{}, fmt.Errorf("expected 7 fields, got %d", len(fields))
	}
	t, err := time.Parse(timeLayout, fields[0])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	src, err := netip.ParseAddr(fields[1])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("src IP: %w", err)
	}
	dst, err := netip.ParseAddr(fields[2])
	if err != nil {
		return FlowRecord{}, fmt.Errorf("dst IP: %w", err)
	}
	port, err := strconv.ParseUint(fields[3], 10, 16)
	if err != nil {
		return FlowRecord{}, fmt.Errorf("port: %w", err)
	}
	bytes, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return FlowRecord{}, fmt.Errorf("bytes: %w", err)
	}
	packets, err := strconv.ParseInt(fields[6], 10, 64)
	if err != nil {
		return FlowRecord{}, fmt.Errorf("packets: %w", err)
	}
	return FlowRecord{
		Time: t, SrcIP: src, DstIP: dst, DstPort: uint16(port),
		Protocol: fields[4], Bytes: bytes, Packets: packets,
	}, nil
}
