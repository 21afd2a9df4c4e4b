package logs

import "strings"

const (
	// textBlockBytes is the size of a TextBlock's block: a few hundred
	// records' or names' worth, so the block costs one allocation per several
	// hundred values, and small enough that an owner's one current block — or
	// a few retained strings pinning an old one — is no memory worth counting.
	textBlockBytes = 32 << 10
	// textMaxCarve is the longest value carved from a block; a longer one gets
	// a string of its own rather than retiring most of a block.
	textMaxCarve = 4 << 10
)

// TextBlock carves strings out of append-only 32 KiB blocks, so an owner that
// keeps many short strings — a decoder's Domain, URL and Referer values, a
// day builder's retained paths — allocates once per block instead of once per
// string. A block is written
// only past its end and dropped, never reused, when a value does not fit, so
// every string a TextBlock returned stays valid and unchanged for as long as
// anything references it, and may cross goroutines. The zero value is ready
// to use; a TextBlock is not safe for concurrent use.
//
// The copy-to-keep rule: a carved string keeps its whole block reachable. So
// whoever keeps a value longer than the value's owner lives copies it first,
// into a block of its own lifetime or with strings.Clone: a shard-day's
// builder copies decoded paths into its block, which dies with the day, and
// clones a decoded domain into its key, which the history, the calibration
// examples and the compact dailies keep for good.
type TextBlock struct {
	b strings.Builder
}

// CopyBytes returns b as a string carved from the block.
func (t *TextBlock) CopyBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > textMaxCarve {
		return string(b)
	}
	n := t.room(len(b))
	t.b.Write(b)
	return t.b.String()[n:]
}

// Copy returns a copy of s carved from the block.
func (t *TextBlock) Copy(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > textMaxCarve {
		return strings.Clone(s)
	}
	n := t.room(len(s))
	t.b.WriteString(s)
	return t.b.String()[n:]
}

// room starts a new block when the current one cannot take n more bytes, and
// returns the offset the next value lands at. Appending within the block's
// capacity never moves or rewrites the bytes before it.
func (t *TextBlock) room(n int) int {
	if t.b.Cap()-t.b.Len() < n {
		t.b.Reset()
		t.b.Grow(textBlockBytes)
	}
	return t.b.Len()
}

// Len returns how many bytes the current block holds.
func (t *TextBlock) Len() int { return t.b.Len() }
