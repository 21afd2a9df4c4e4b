package inputs

import (
	"net/netip"

	"repro/internal/logs"
	"repro/internal/normalize"
)

// FlowDomain embeds a flow destination address into the engine's domain
// namespace. The batch NetFlow reduction (normalize.ReduceFlows) uses the
// destination address string itself as the domain, but the streaming
// engine runs every record through the proxy reduction, which drops
// IP-literal domains by design. Rewriting the separators and appending a
// synthetic TLD — "203.0.113.9" → "203-0-113-9.netflow" — yields a
// two-label name that the proxy reduction passes through unchanged
// (second-level fold is the identity, not an IP literal), while staying
// injective: distinct destinations map to distinct folded domains, exactly
// the granularity ReduceFlows gives the detectors.
func FlowDomain(a netip.Addr) string {
	s := a.String()
	b := make([]byte, 0, len(s)+len(flowDomainSuffix))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '.', ':':
			b = append(b, '-')
		default:
			b = append(b, c)
		}
	}
	return string(append(b, flowDomainSuffix...))
}

const flowDomainSuffix = ".netflow"

// flowDomainCacheMax bounds the per-connection destination→domain cache: a
// long-lived flow feed revisits the same external servers constantly, but
// a scan of the whole v4 space must not grow the map without bound.
const flowDomainCacheMax = 8192

// flowFrameDecoder decodes TSV netflow frames and applies the flow
// reduction's own pre-filters (web ports only, external destinations only)
// before embedding each flow as a proxy record: Host stays empty so the
// engine resolves the source through the day's lease map — the same
// contract ReduceFlows has — and the destination becomes a FlowDomain.
type flowFrameDecoder struct {
	l       *Listener
	dec     *logs.FlowDecoder
	domains map[netip.Addr]string
}

func newFlowDecoder(l *Listener) *flowFrameDecoder {
	return &flowFrameDecoder{l: l, dec: logs.NewFlowDecoder(), domains: make(map[netip.Addr]string)}
}

func (f *flowFrameDecoder) decode(frame []byte, rec *logs.ProxyRecord) (bool, error) {
	fr, err := f.dec.ParseFlowRecord(frame)
	if err != nil {
		return false, err
	}
	if (fr.DstPort != 80 && fr.DstPort != 443) || normalize.IsInternal(fr.DstIP) {
		f.l.filtered.Add(1)
		return false, nil
	}
	dom, ok := f.domains[fr.DstIP]
	if !ok {
		dom = FlowDomain(fr.DstIP)
		if len(f.domains) >= flowDomainCacheMax {
			clear(f.domains)
		}
		f.domains[fr.DstIP] = dom
	}
	*rec = logs.ProxyRecord{Time: fr.Time, SrcIP: fr.SrcIP, Domain: dom, DestIP: fr.DstIP}
	return true, nil
}

func (f *flowFrameDecoder) release() {}
