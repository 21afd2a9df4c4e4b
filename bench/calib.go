package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a few cores of a shared host. For seconds to minutes
// at a time its neighbours make every instruction stream that is not a bare
// arithmetic loop — set-up, the daemon, this driver — cost up to half as
// much CPU again, with hardly any steal time to show for it, and no
// statistic taken over one run's timings removes that: in such a spell ten
// runs of the same code spread by 25-35 %. So a run measures the box beside
// the daemon. Before and after every set-up and every pass it times a fixed
// piece of work of the daemon's kind (cut tab-separated lines, parse a
// number, look a field up in a map, copy the rest out), shared between the
// cores through one queue as the daemon's work is, and each end-to-end
// timing is stated at the reference speed: divided by the slowdown the two
// calibrations around its set-up or pass saw. The per-layer metrics stay as
// measured, with driver.slowdown beside them; result.json keeps the timings
// as measured and the slowdowns they were divided by.
const (
	calibLines      = 2000 // the text, some 200 KB, stays in the private caches
	calibKeys       = 1 << 11
	calibChunkLines = 250
	calibRounds     = 80 // times each core's share of the queue covers the text
	// calibRepeats is how many calibrations a visit makes; it reports their
	// median, so a preempted repeat does not count.
	calibRepeats = 7
	// calibRefMS is what one calibration takes on the reference box while
	// its neighbours are quiet: slowdown 1.
	calibRefMS = 7.2
)

type calibrator struct {
	chunks [][]byte // the text in pieces of calibChunkLines lines
	table  map[string]int32
	last   float64 // the previous visit
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make(map[string]int32, calibKeys)}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	keys := make([]string, calibKeys)
	for i := range keys {
		keys[i] = "host-" + strconv.FormatUint(next()%1e9, 36) + ".example.net"
		c.table[keys[i]] = int32(i)
	}
	var text []byte
	for i := 0; i < calibLines; i++ {
		text = strconv.AppendUint(text, next()%1e10, 10)
		text = append(text, '\t')
		text = append(text, keys[next()%calibKeys]...)
		text = append(text, "\tGET\t/index/"...)
		text = strconv.AppendUint(text, next()%1e6, 10)
		text = append(text, "\tMozilla/5.0 (X11; Linux x86_64) Gecko/20100101\t200\n"...)
		if (i+1)%calibChunkLines == 0 {
			c.chunks = append(c.chunks, text)
			text = nil
		}
	}
	c.last = c.visit()
	return c
}

// work cuts every line of a chunk into fields, parses the first, looks the
// second up and copies the rest out.
func (c *calibrator) work(text, out []byte) (uint64, []byte) {
	var sum uint64
	for len(text) > 0 {
		nl := bytes.IndexByte(text, '\n')
		line := text[:nl]
		text = text[nl+1:]
		tab := bytes.IndexByte(line, '\t')
		var n uint64
		for _, d := range line[:tab] {
			n = n*10 + uint64(d-'0')
		}
		line = line[tab+1:]
		tab = bytes.IndexByte(line, '\t')
		sum += n + uint64(c.table[string(line[:tab])])
		out = append(out[:0], line[tab+1:]...)
	}
	return sum, out
}

// once times a fixed number of chunks per core, in milliseconds. The cores
// draw the chunks from one queue, so a core that a neighbour slows down
// does less of the work instead of holding the others up: the time follows
// the capacity the box has left, as the daemon's throughput does.
func (c *calibrator) once() float64 {
	workers := runtime.GOMAXPROCS(0)
	total := int64(workers * calibRounds * len(c.chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]byte, 0, 256)
			for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
				_, out = c.work(c.chunks[i%int64(len(c.chunks))], out)
			}
		}()
	}
	wg.Wait()
	return ms(time.Since(start))
}

// visit is the median of calibRepeats calibrations.
func (c *calibrator) visit() float64 {
	v := make([]float64, calibRepeats)
	for i := range v {
		v[i] = c.once()
	}
	return median(v)
}

// slowdown calibrates again and returns how much slower than the reference
// the box ran since the previous visit: the mean of the two visits around
// that stretch over calibRefMS.
func (c *calibrator) slowdown() float64 {
	before := c.last
	c.last = c.visit()
	return (before + c.last) / 2 / calibRefMS
}
