// Package logs defines the log record model shared by every subsystem:
// DNS query records in the style of the LANL release and web-proxy records
// in the style of the AC enterprise dataset, together with the domain and
// IP-address utilities the paper's reduction and feature-extraction stages
// rely on (domain folding, subnet proximity).
//
// Records are deliberately plain structs with no behaviour so that
// generators, the normalization pipeline and the detectors can exchange
// them without coupling.
package logs

import (
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// RecordType identifies the DNS record type of a query. Only A records
// carry usable information in the LANL dataset (other types are redacted),
// and the reduction stage prunes everything else.
type RecordType int

// DNS record types that appear in the generated logs.
const (
	TypeA RecordType = iota + 1
	TypeAAAA
	TypeTXT
	TypeMX
	TypeCNAME
	TypePTR
)

var recordTypeNames = map[RecordType]string{
	TypeA:     "A",
	TypeAAAA:  "AAAA",
	TypeTXT:   "TXT",
	TypeMX:    "MX",
	TypeCNAME: "CNAME",
	TypePTR:   "PTR",
}

// String returns the standard DNS name of the record type.
func (t RecordType) String() string {
	if s, ok := recordTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecordType(%d)", int(t))
}

// ParseRecordType converts a DNS type name into a RecordType.
func ParseRecordType(s string) (RecordType, error) {
	for t, name := range recordTypeNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown DNS record type %q", s)
}

// DNSRecord is a single DNS query/response pair as captured at the
// enterprise resolver, following the schema of the anonymized LANL release:
// timestamp, source (internal host) IP, queried name, record type and the
// resolved address for A records.
type DNSRecord struct {
	Time     time.Time
	SrcIP    netip.Addr
	Query    string
	Type     RecordType
	Answer   netip.Addr // zero value when the response carried no address
	Internal bool       // query for an internal resource
	Server   bool       // query initiated by an internal server, not a user host
}

// ProxyRecord is a single HTTP/HTTPS connection as captured by web proxies
// at the enterprise border (the AC dataset schema). Host is empty before
// normalization; the normalize package fills it in from DHCP/VPN mappings.
type ProxyRecord struct {
	Time      time.Time
	Host      string // hostname after DHCP/VPN normalization
	SrcIP     netip.Addr
	Domain    string
	DestIP    netip.Addr
	URL       string
	Method    string
	Status    int
	UserAgent string
	Referer   string
	TZOffset  int // capture-device timezone offset in hours, 0 == UTC
}

// Visit is the minimal, dataset-independent view of "host contacted domain
// at time t with destination IP a". Both the LANL/DNS path and the AC/proxy
// path reduce to streams of Visits before feature extraction, which is what
// lets the detectors run unchanged on either dataset.
type Visit struct {
	Time      time.Time
	Host      string
	Domain    string // folded domain
	DestIP    netip.Addr
	URL       string // full URL; empty for DNS data
	UserAgent string // empty for DNS data
	HasUA     bool
	HasRef    bool // the record carried a referer; the string itself is never read
}

// FoldDomain reduces a domain name to its last n labels, which the paper
// uses to attribute traffic to the owning organization: web proxies fold to
// the second level (news.nbc.com -> nbc.com) while the anonymized LANL data
// folds conservatively to the third level. Domains with fewer labels are
// returned unchanged. Folding is case-insensitive and strips a trailing dot.
func FoldDomain(domain string, n int) string {
	d := strings.ToLower(strings.TrimSuffix(domain, "."))
	if n <= 0 {
		return d
	}
	// The last n dot-separated labels form a suffix of d, so slice it out
	// directly instead of a Split/Join round trip: this runs once per
	// record on the ingest hot path, where those two allocations dominated.
	dots := 0
	for i := len(d) - 1; i >= 0; i-- {
		if d[i] == '.' {
			dots++
			if dots == n {
				return d[i+1:]
			}
		}
	}
	return d
}

// FoldSecondLevel folds a domain to its registrable second level,
// the default for the enterprise web-proxy data.
func FoldSecondLevel(domain string) string { return FoldDomain(domain, 2) }

// FoldThirdLevel folds a domain to the third level, used for the LANL data
// where top-level labels are anonymized.
func FoldThirdLevel(domain string) string { return FoldDomain(domain, 3) }

// IsIPLiteral reports whether the destination field is a bare IP address
// rather than a domain name; the paper drops such destinations. The scan
// rejects ordinary domain names before netip.ParseAddr runs, because the
// parser allocates its error and this is called once per record on the
// ingest hot path.
func IsIPLiteral(s string) bool {
	maybeV4 := s != ""
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			// Only IPv6 literals carry colons; let the parser decide.
			_, err := netip.ParseAddr(s)
			return err == nil
		}
		if c != '.' && (c < '0' || c > '9') {
			maybeV4 = false
		}
	}
	if !maybeV4 {
		return false
	}
	_, err := netip.ParseAddr(s)
	return err == nil
}

// Subnet24 returns the /24 prefix of an IPv4 address (or the /64 prefix of
// an IPv6 address) used for the IP-space proximity feature.
func Subnet24(a netip.Addr) netip.Prefix {
	bits := 24
	if a.Is6() && !a.Is4In6() {
		bits = 64
	}
	p, err := a.Prefix(bits)
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// Subnet16 returns the /16 prefix of an IPv4 address (or the /48 prefix of
// an IPv6 address).
func Subnet16(a netip.Addr) netip.Prefix {
	bits := 16
	if a.Is6() && !a.Is4In6() {
		bits = 48
	}
	p, err := a.Prefix(bits)
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// SameSubnet24 reports whether two addresses share a /24 (IPv4) subnet.
func SameSubnet24(a, b netip.Addr) bool {
	if !a.IsValid() || !b.IsValid() {
		return false
	}
	return Subnet24(a) == Subnet24(b)
}

// SameSubnet16 reports whether two addresses share a /16 (IPv4) subnet.
func SameSubnet16(a, b netip.Addr) bool {
	if !a.IsValid() || !b.IsValid() {
		return false
	}
	return Subnet16(a) == Subnet16(b)
}

// Day truncates a timestamp to its UTC calendar day. Daily batching (the
// paper's observation window) keys everything on this value.
func Day(t time.Time) time.Time {
	u := t.UTC()
	return time.Date(u.Year(), u.Month(), u.Day(), 0, 0, 0, 0, time.UTC)
}

// DayString formats a day key as YYYY-MM-DD for report output.
func DayString(t time.Time) string { return Day(t).Format("2006-01-02") }
