package logs

// The zero-copy decode primitives: a tab cutter that sub-slices one line
// into fields without strings.Split, a fixed-layout RFC 3339 timestamp
// parser that avoids time.Parse on the bytes the encoders actually write,
// integer parsers that work on byte slices, the interning table that lets
// millions of records share one string allocation per distinct value of a
// low-cardinality column, and the address front that parses a dotted quad in
// place. All three record formats (proxy, DNS, flow)
// decode through these primitives; the retained naive parsers in codec.go
// and flow.go are the differential-fuzz reference.
//
// Every fast path here preserves the accept/reject decisions of the naive
// path it replaces: anything the fast scan cannot handle with certainty
// falls back to the stdlib routine the naive parser used, so the only
// difference on such inputs is speed, never verdict.

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"strconv"
	"time"
)

// cutTSV splits line on tabs into dst without allocating and returns the
// total number of fields on the line — even when that exceeds len(dst),
// because callers report the true count in their field-count errors
// (matching strings.Split semantics: an empty line is one empty field).
// Fields beyond len(dst) are counted but not stored.
//
// TSV fields are short (a timestamp, a hostname, a status code), so the
// per-call setup of bytes.IndexByte dominates an IndexByte-per-field loop.
// Instead the line is scanned eight bytes at a time with a SWAR zero-byte
// scan: XOR against a tab-broadcast word turns tabs into zero bytes, and
// ^(((v&^hi)+^hi)|v)&hi lights the high bit of exactly those. (The shorter
// Mycroft form (v-lo)&^v&hi is NOT positionally exact — a borrow out of a
// true zero byte can flag the 0x01 byte above it, which here would turn a
// tab followed by 0x08 into a phantom extra tab; the masked-add form keeps
// every byte's carry to itself.)
func cutTSV(line []byte, dst [][]byte) int {
	const (
		tabs = 0x0909090909090909
		hi   = 0x8080808080808080
	)
	n, start, i := 0, 0, 0
	for i+8 <= len(line) {
		v := binary.LittleEndian.Uint64(line[i:]) ^ tabs
		for m := ^(((v &^ hi) + ^uint64(hi)) | v) & hi; m != 0; m &= m - 1 {
			j := i + bits.TrailingZeros64(m)>>3
			if n < len(dst) {
				dst[n] = line[start:j]
			}
			n++
			start = j + 1
		}
		i += 8
	}
	for ; i < len(line); i++ {
		if line[i] == '\t' {
			if n < len(dst) {
				dst[n] = line[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < len(dst) {
		dst[n] = line[start:]
	}
	return n + 1
}

// tsCache is the timestamp parser's reusable state: the last date prefix
// seen and its midnight. Log files are time-ordered, so after the first
// record of a day every timestamp shares the date and the parse reduces to
// a 10-byte compare plus three two-digit reads — no time.Date per record.
type tsCache struct {
	dateW0   uint64 // first 8 bytes of the "2006-01-02" prefix, little-endian
	dateW1   uint16 // last 2 bytes of the prefix
	haveDate bool
	midnight time.Time
}

// sameDate reports whether b (len >= 10) starts with the cached date
// prefix — two integer compares instead of a 10-byte memcmp.
func (tc *tsCache) sameDate(b []byte) bool {
	return tc.haveDate &&
		binary.LittleEndian.Uint64(b) == tc.dateW0 &&
		binary.LittleEndian.Uint16(b[8:10]) == tc.dateW1
}

// cacheDate records b's leading 10 bytes as the date prefix midnight
// belongs to.
func (tc *tsCache) cacheDate(b []byte, midnight time.Time) {
	tc.dateW0 = binary.LittleEndian.Uint64(b)
	tc.dateW1 = binary.LittleEndian.Uint16(b[8:10])
	tc.midnight = midnight
	tc.haveDate = true
}

// parseTimestamp decodes one timestamp field. The fast path handles the
// strict "YYYY-MM-DDThh:mm:ss[.fffffffff]Z" subset — exactly what the
// append encoders emit, since every writer formats in UTC — and anything
// else (numeric offsets, comma fractions, malformed input) falls back to
// time.Parse, which makes the accept/reject decision and the resulting
// time.Time identical to the naive parsers' by construction.
func (tc *tsCache) parseTimestamp(b []byte) (time.Time, error) {
	if t, ok := tc.parseRFC3339Z(b); ok {
		return t, nil
	}
	return time.Parse(timeLayout, string(b))
}

// parseRFC3339Z mirrors the semantics of the stdlib's internal strict
// RFC 3339 fast path for the UTC ("Z") case, including day-in-month
// validation and fraction truncation, so an input it accepts would have
// produced the same time.Time from time.Parse. Anything doubtful returns
// ok=false and is settled by the fallback.
func (tc *tsCache) parseRFC3339Z(b []byte) (time.Time, bool) {
	if len(b) < len("2006-01-02T15:04:05Z") ||
		b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[len(b)-1] != 'Z' {
		return time.Time{}, false
	}
	hour, ok := atoiFixed(b[11:13])
	if !ok || hour > 23 {
		return time.Time{}, false
	}
	minute, ok := atoiFixed(b[14:16])
	if !ok || minute > 59 {
		return time.Time{}, false
	}
	sec, ok := atoiFixed(b[17:19])
	if !ok || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if frac := b[19 : len(b)-1]; len(frac) > 0 {
		// 1 to 9 fractional digits after a dot; longer fractions and comma
		// separators are legal for time.Parse, so leave them to it.
		if frac[0] != '.' || len(frac) == 1 || len(frac) > 10 {
			return time.Time{}, false
		}
		scale := 1_000_000_000
		for _, c := range frac[1:] {
			if c < '0' || c > '9' {
				return time.Time{}, false
			}
			scale /= 10
			nsec += int(c-'0') * scale
		}
	}
	if !tc.sameDate(b) {
		year, ok := atoiFixed(b[0:4])
		if !ok {
			return time.Time{}, false
		}
		month, ok := atoiFixed(b[5:7])
		if !ok || month < 1 || month > 12 {
			return time.Time{}, false
		}
		day, ok := atoiFixed(b[8:10])
		if !ok || day < 1 || day > daysIn(month, year) {
			return time.Time{}, false
		}
		tc.cacheDate(b, time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC))
	}
	// midnight.Add builds the identical time.Time that
	// time.Date(y, m, d, hour, minute, sec, nsec, time.UTC) would: both are
	// the same wall-clock nanosecond in UTC with no monotonic reading.
	return tc.midnight.Add(time.Duration(hour*3600+minute*60+sec)*time.Second + time.Duration(nsec)), true
}

var daysPerMonth = [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

func daysIn(month, year int) int {
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return daysPerMonth[month-1]
}

// atoiFixed parses a fixed-width run of ASCII digits (no sign, no spaces).
func atoiFixed(b []byte) (int, bool) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// atoiField parses a signed decimal integer field with strconv.Atoi's
// accept/reject behavior. Inputs short enough that overflow is impossible
// are handled without allocating; anything longer (or malformed, where the
// parse is failing anyway) goes to strconv for its exact semantics.
func atoiField(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.Atoi(string(b))
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return strconv.Atoi(string(b))
		}
	}
	v := 0
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return strconv.Atoi(string(b))
		}
		v = v*10 + int(c)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// uintField parses an unsigned decimal field with strconv.ParseUint's
// accept/reject behavior for the given bit size.
func uintField(b []byte, bits int) (uint64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseUint(string(b), 10, bits)
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseUint(string(b), 10, bits)
		}
		v = v*10 + uint64(c-'0')
	}
	if bits < 64 && v > 1<<uint(bits)-1 {
		return strconv.ParseUint(string(b), 10, bits)
	}
	return v, nil
}

// Interning caps. A decoder's table starts over at the first cap it hits:
// the map is emptied and refills from the values still arriving, so a
// long-lived decoder (a TCP connection that lasts months) tracks the traffic
// it sees now instead of freezing full of last month's user agents. The hot
// strings survive the turnover in the front array and re-enter the map at one
// allocation each. Hostile input (a flood of unique user agents, say) only
// turns the table over faster: throughput degrades towards the naive parser's
// allocation profile, memory stays bounded.
const (
	internMaxEntries = 1 << 16 // distinct strings per table
	internMaxStrLen  = 512     // longer values are never worth caching
	internMaxBytes   = 4 << 20 // total retained bytes per table
)

// quickHash mixes a field's leading bytes and length into a cheap hash for
// the direct-mapped front caches. It is NOT collision-resistant — values
// sharing a prefix and length collide — but a front miss only costs the
// slow path (a map lookup, a parse), never correctness. Callers take however
// many top bits they need.
func quickHash(b []byte) uint64 {
	var v uint64
	if len(b) >= 8 {
		// First and last words together: values that differ only in a middle
		// or trailing run (dotted IPs, numbered hosts) still spread.
		v = binary.LittleEndian.Uint64(b) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(b[len(b)-8:]), 32)
	} else {
		for i := 0; i < len(b); i++ {
			v |= uint64(b[i]) << (8 * uint(i))
		}
	}
	v ^= uint64(len(b)) * 0xff51afd7ed558ccd
	return v * 0x9E3779B97F4A7C15
}

// internFrontBits sizes the direct-mapped front array (2^bits slots).
const internFrontBits = 12

// Intern deduplicates the string columns the enterprise bounds (Host,
// Method, UserAgent): every record of a multi-gigabyte day that carries the
// same user agent shares one string allocation. Domain, URL and Referer are
// not among them — new values keep arriving all day (every fresh rare domain
// brings a name never seen before), so a capped table only charges them a
// failed probe and an insert; the proxy decoder carves them from its text
// block instead. Lookups with a byte-slice key do not allocate. A
// direct-mapped front array answers the hot values without touching the map;
// the map stays the authority, so front collisions cost a map probe, not a
// wrong string. The table is not safe for concurrent use; each decoder owns
// one.
type Intern struct {
	m     map[string]string
	front [1 << internFrontBits]string
	bytes int
}

// NewIntern returns an empty interning table.
func NewIntern() *Intern {
	return &Intern{m: make(map[string]string)}
}

// Bytes returns the canonical string for b, allocating only the first time
// a distinct value is seen since the table last started over (or every time,
// for a value longer than internMaxStrLen).
func (in *Intern) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &in.front[quickHash(b)>>(64-internFrontBits)]
	if s := *slot; len(s) == len(b) && string(b) == s {
		return s
	}
	s, ok := in.m[string(b)]
	if !ok {
		s = string(b)
		if len(s) > internMaxStrLen {
			return s
		}
		if len(in.m) >= internMaxEntries || in.bytes+len(s) > internMaxBytes {
			clear(in.m)
			in.bytes = 0
		}
		in.m[s] = s
		in.bytes += len(s)
	}
	*slot = s
	return s
}

// Len reports the number of distinct strings currently retained.
func (in *Intern) Len() int { return len(in.m) }

// addrFrontBits sizes the addrCache front (2^bits slots).
const addrFrontBits = 11

// addrKeyMax is the longest address text a front slot holds:
// "ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255", the longest zone-less IPv6
// literal. Longer text (only a zoned IPv6 address gets there) is parsed on
// every sight.
const addrKeyMax = 45

// addrCache resolves textual IP addresses through a direct-mapped front and
// nothing else. A slot holds its key inline, so claiming one copies bytes
// instead of allocating a string, and a hit — the enterprise's hosts, an IPv6
// address repeating — costs a hash and a compare. A miss parses: a plain
// dotted quad in place (parseIPv4), anything else with netip.ParseAddr, and the
// result claims the slot. There is no map behind the front: churn traffic
// brings a new destination address with every fresh rare domain, and a map
// keyed on values that never repeat would charge each one a string, a hash
// and an insert, and need a cap.
type addrCache struct {
	front [1 << addrFrontBits]addrSlot
}

type addrSlot struct {
	n    uint8 // key length; 0 = unclaimed
	key  [addrKeyMax]byte
	addr netip.Addr
}

// parse resolves a textual address.
func (c *addrCache) parse(b []byte) (netip.Addr, error) {
	e := &c.front[quickHash(b)>>(64-addrFrontBits)]
	// n == 0 marks an unclaimed slot, and an empty field never claims one, so
	// an empty field cannot "hit": netip.ParseAddr rejects "", and the error
	// path must decide, not the cache.
	if len(b) != 0 && int(e.n) == len(b) && string(e.key[:e.n]) == string(b) {
		return e.addr, nil
	}
	a, ok := parseIPv4(b)
	if !ok {
		var err error
		if a, err = netip.ParseAddr(string(b)); err != nil {
			return a, err
		}
	}
	if len(b) <= addrKeyMax {
		e.n = uint8(copy(e.key[:], b))
		e.addr = a
	}
	return a, nil
}

// parseIPv4 parses a plain dotted quad in place, accepting exactly what
// netip.ParseAddr accepts as IPv4: four fields of one to three digits, no
// leading zero, none over 255, nothing else on the line. Whatever it refuses
// (IPv6, a zone, a malformed quad) goes to netip.ParseAddr, which decides —
// FuzzParseIPv4 holds the two to the same verdict and address.
func parseIPv4(b []byte) (netip.Addr, bool) {
	var ip [4]byte
	field, val, digits := 0, 0, 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			if digits == 1 && val == 0 {
				return netip.Addr{}, false // leading zero
			}
			val = val*10 + int(c-'0')
			digits++
			if val > 255 {
				return netip.Addr{}, false
			}
		case c == '.' && digits > 0 && field < 3:
			ip[field] = byte(val)
			field, val, digits = field+1, 0, 0
		default:
			return netip.Addr{}, false
		}
	}
	if field != 3 || digits == 0 {
		return netip.Addr{}, false
	}
	ip[3] = byte(val)
	return netip.AddrFrom4(ip), true
}
