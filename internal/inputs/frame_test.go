package inputs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/logs"
)

// chunkReader feeds its data n bytes at a time, so the scanner sees every
// frame split across reads — the TCP segmentation case.
type chunkReader struct {
	data  []byte
	chunk int
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	if len(cr.data) == 0 {
		return 0, io.EOF
	}
	n := min(cr.chunk, min(len(p), len(cr.data)))
	copy(p, cr.data[:n])
	cr.data = cr.data[n:]
	return n, nil
}

// collectFrames drains a scanner, copying each frame (they alias the
// scanner's buffer), and returns the frames with the terminal error
// (nil for a clean EOF).
func collectFrames(r io.Reader, framing Framing, max int) ([][]byte, error) {
	fs := newFrameScanner(r, framing, max)
	var frames [][]byte
	for {
		f, ok, err := fs.next()
		if !ok && err == nil {
			err = fs.fill()
		}
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		if ok {
			frames = append(frames, bytes.Clone(f))
		}
	}
}

// naiveSplit is the reference implementation the fuzz target checks the
// scanner against: one pass over the whole input, no buffering.
func naiveSplit(data []byte, framing Framing, max int) ([][]byte, error) {
	var frames [][]byte
	if framing == FramingNewline {
		for {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				switch {
				case len(data) == 0:
					return frames, nil
				case len(data) > max:
					return frames, errFrameTooBig
				}
				return frames, errTornFrame
			}
			if i > max {
				return frames, errFrameTooBig
			}
			line := data[:i]
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			frames = append(frames, line)
			data = data[i+1:]
		}
	}
	for {
		if len(data) == 0 {
			return frames, nil
		}
		i, n := 0, 0
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			if i == maxOctetDigits {
				return frames, errBadOctetHeader
			}
			n = n*10 + int(data[i]-'0')
			i++
		}
		if i == len(data) {
			return frames, errTornFrame // header may still be arriving
		}
		if i == 0 || data[i] != ' ' {
			return frames, errBadOctetHeader
		}
		if n > max {
			return frames, errFrameTooBig
		}
		if len(data) < i+1+n {
			return frames, errTornFrame
		}
		frames = append(frames, data[i+1:i+1+n])
		data = data[i+1+n:]
	}
}

func TestFrameScannerNewline(t *testing.T) {
	in := "alpha\nbeta\r\n\ngamma\n"
	for chunk := 1; chunk <= len(in)+1; chunk++ {
		frames, err := collectFrames(&chunkReader{data: []byte(in), chunk: chunk}, FramingNewline, 64)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		want := []string{"alpha", "beta", "", "gamma"}
		if len(frames) != len(want) {
			t.Fatalf("chunk %d: got %d frames, want %d", chunk, len(frames), len(want))
		}
		for i, w := range want {
			if string(frames[i]) != w {
				t.Fatalf("chunk %d: frame %d = %q, want %q", chunk, i, frames[i], w)
			}
		}
	}
}

func TestFrameScannerOctet(t *testing.T) {
	in := "5 alpha4 beta0 7 with\nnl"
	for chunk := 1; chunk <= len(in)+1; chunk++ {
		frames, err := collectFrames(&chunkReader{data: []byte(in), chunk: chunk}, FramingOctet, 64)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		want := []string{"alpha", "beta", "", "with\nnl"}
		if len(frames) != len(want) {
			t.Fatalf("chunk %d: got frames %q, want %d", chunk, frames, len(want))
		}
		for i, w := range want {
			if string(frames[i]) != w {
				t.Fatalf("chunk %d: frame %d = %q, want %q", chunk, i, frames[i], w)
			}
		}
	}
}

func TestFrameScannerRefusals(t *testing.T) {
	cases := []struct {
		name    string
		framing Framing
		in      string
		max     int
		frames  int
		err     error
	}{
		{"torn newline tail", FramingNewline, "done\npart", 64, 1, errTornFrame},
		{"line over cap", FramingNewline, "0123456789\n", 4, 0, errFrameTooBig},
		{"unterminated over cap", FramingNewline, "0123456789", 4, 0, errFrameTooBig},
		{"octet count over cap", FramingOctet, "500 x", 64, 0, errFrameTooBig},
		{"octet non-digit header", FramingOctet, "x5 hello", 64, 0, errBadOctetHeader},
		{"octet missing space", FramingOctet, "5hello...", 64, 0, errBadOctetHeader},
		{"octet hostile length", FramingOctet, "99999999999999999999 x", 64, 0, errBadOctetHeader},
		{"octet torn payload", FramingOctet, "5 ab", 64, 0, errTornFrame},
		{"octet torn header", FramingOctet, "12", 64, 0, errTornFrame},
		{"octet torn after frame", FramingOctet, "2 ok7", 64, 1, errTornFrame},
	}
	for _, tc := range cases {
		for chunk := 1; chunk <= len(tc.in); chunk++ {
			frames, err := collectFrames(&chunkReader{data: []byte(tc.in), chunk: chunk}, tc.framing, tc.max)
			if !errors.Is(err, tc.err) {
				t.Errorf("%s (chunk %d): err = %v, want %v", tc.name, chunk, err, tc.err)
			}
			if len(frames) != tc.frames {
				t.Errorf("%s (chunk %d): %d frames before refusal, want %d", tc.name, chunk, len(frames), tc.frames)
			}
		}
	}
}

// TestFrameScannerReleasesFirstChunk checks what goes back to the pool: the
// readChunk buffer the scanner started with, even after a frame longer than
// a chunk grew its buffer — the grown one, sized toward the frame cap, is
// left to the GC.
func TestFrameScannerReleasesFirstChunk(t *testing.T) {
	long := append(bytes.Repeat([]byte("x"), 3*readChunk), '\n')
	fs := newFrameScanner(bytes.NewReader(long), FramingNewline, DefaultMaxFrameBytes)
	for {
		f, ok, err := fs.next()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if len(f) != 3*readChunk {
				t.Fatalf("frame of %d bytes, want %d", len(f), 3*readChunk)
			}
			break
		}
		if err := fs.fill(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(fs.buf) <= readChunk {
		t.Fatalf("buffer capacity %d after a %d-byte frame, want it grown", cap(fs.buf), len(long))
	}
	h := fs.pooled
	fs.release()
	if len(*h) != 0 || cap(*h) != readChunk {
		t.Fatalf("released a buffer of len %d, cap %d, want the empty %d-byte first chunk", len(*h), cap(*h), readChunk)
	}
}

// FuzzFrameSplit checks the buffering frame scanner against the one-pass
// naive reference for every input, framing, cap and read-chunking: same
// frames, same terminal classification. Torn frames and hostile octet
// counts must refuse cleanly (an error, never a panic or a hang). The same
// bytes then go through the whole reader loop as proxy frames, held to the
// per-frame reference loop (diffHandle): same delivered records, counters
// and error wherever the reads cut the stream.
func FuzzFrameSplit(f *testing.F) {
	f.Add([]byte("alpha\nbeta\n"), false, 64, 3)
	f.Add([]byte("5 alpha4 beta"), true, 64, 1)
	f.Add([]byte("999999999 x"), true, 32, 2)
	f.Add([]byte("12"), true, 16, 1)
	f.Add([]byte("a\rb\r\n\n"), false, 16, 5)
	f.Add([]byte("0 0 0 "), true, 8, 2)
	recs := []logs.ProxyRecord{testProxyRecord(0), testProxyRecord(1), testProxyRecord(2)}
	f.Add(frameProxy(FramingNewline, recs), false, 4095, 7)
	f.Add(frameProxy(FramingOctet, recs), true, 4095, 33)
	f.Add(append(frameProxy(FramingNewline, recs[:2]), "\r\n\nnot a record\n"...), false, 200, 5)
	f.Fuzz(func(t *testing.T, data []byte, octet bool, max, chunk int) {
		framing := FramingNewline
		if octet {
			framing = FramingOctet
		}
		max = max&0xfff + 1    // [1, 4096]: zero would mean "default cap" to the scanner
		chunk = chunk&0x3f + 1 // [1, 64]
		got, gotErr := collectFrames(&chunkReader{data: bytes.Clone(data), chunk: chunk}, framing, max)
		want, wantErr := naiveSplit(data, framing, max)
		if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
			t.Fatalf("error mismatch: scanner %v, reference %v (framing %v max %d chunk %d input %q)",
				gotErr, wantErr, framing, max, chunk, data)
		}
		if len(got) != len(want) {
			t.Fatalf("frame count mismatch: scanner %d, reference %d (framing %v max %d chunk %d input %q)",
				len(got), len(want), framing, max, chunk, data)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d mismatch: scanner %q, reference %q", i, got[i], want[i])
			}
		}
		diffHandle(t, "fuzz", data, Config{Name: "fuzz", Framing: framing, MaxFrameBytes: max, BatchRecords: 2}, chunk)
	})
}

func TestParseOctetHeader(t *testing.T) {
	cases := []struct {
		in       string
		n, hdr   int
		ok, done bool
	}{
		{"5 ", 5, 2, true, true},
		{"123 x", 123, 4, true, true},
		{"0 ", 0, 2, true, true},
		{"", 0, 0, true, false},
		{"12", 0, 0, true, false},
		{"999999999", 0, 0, true, false}, // nine digits, space may follow
		{"1234567890", 0, 0, false, false},
		{"x", 0, 0, false, false},
		{"5x", 0, 0, false, false},
		{" 5", 0, 0, false, false},
	}
	for _, tc := range cases {
		n, hdr, ok, done := parseOctetHeader([]byte(tc.in))
		if ok != tc.ok || done != tc.done || (done && (n != tc.n || hdr != tc.hdr)) {
			t.Errorf("parseOctetHeader(%q) = (%d,%d,%v,%v), want (%d,%d,%v,%v)",
				tc.in, n, hdr, ok, done, tc.n, tc.hdr, tc.ok, tc.done)
		}
	}
}
