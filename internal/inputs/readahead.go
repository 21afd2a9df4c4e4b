package inputs

import (
	"io"
	"net"
	"sync"
)

// aheadChunks is how many readChunk buffers one read-ahead owns: the one the
// connection's loop is copying out of and at most two read behind it, so a
// connection stopped by its byte cap has read at most 3 × readChunk past it.
const aheadChunks = 3

// connReader is what a connection's frame scanner reads through: count, the
// byte cap and ReadBytes, over the connection itself until one read fills
// all the room the scanner offered — on a saturated connection its 64 KiB
// chunk less the partial frame at its end — and over the read-ahead from
// then on. A connection whose reads never fill that room (one syslog
// message, a trickle) never starts it.
type connReader struct {
	conn    net.Conn
	count   countingReader
	started bool
	ahead   readAhead
}

func newConnReader(c net.Conn, l *Listener) *connReader {
	cr := &connReader{conn: c}
	cr.count = countingReader{r: cr, limit: l.cfg.MaxConnBytes, total: &l.readBytes}
	return cr
}

func (cr *connReader) Read(p []byte) (int, error) {
	if cr.started {
		return cr.ahead.Read(p)
	}
	n, err := cr.conn.Read(p)
	if err == nil && n > 0 && n == len(p) {
		cr.ahead.start(cr.conn)
		cr.started = true
	}
	return n, err
}

// stop closes the connection and joins the read-ahead, if it started, and
// puts its chunks back; nothing reads the connection afterwards.
func (cr *connReader) stop() {
	if !cr.started {
		return
	}
	cr.started = false
	cr.conn.Close() // returns a read in progress
	cr.ahead.stop()
}

// aheadChunk is one slot of a read-ahead: a pooled readChunk buffer and what
// the last read into it returned.
type aheadChunk struct {
	buf *[]byte // chunkPool holder
	n   int
	err error
}

// readAhead reads a source on a goroutine of its own, one read into each of
// its aheadChunks pooled buffers in turn, and hands the slots to Read in
// read order over full; a read error travels in-band, behind the bytes read
// before it. Read copies a slot out and hands it back over free, so the
// goroutine never leads Read by more than the slots it owns.
type readAhead struct {
	src   io.Reader
	slots [aheadChunks]aheadChunk
	full  chan int // slots read, in read order
	free  chan int // slots copied out
	quit  chan struct{}
	done  sync.WaitGroup

	cur  int    // the slot Read copies out of; -1 before the first
	rest []byte // its bytes not yet copied out
	err  error  // its read's error, returned once rest is empty
}

func (ra *readAhead) start(src io.Reader) {
	ra.src, ra.cur, ra.rest, ra.err = src, -1, nil, nil
	ra.full = make(chan int, aheadChunks-1)
	ra.free = make(chan int, aheadChunks)
	ra.quit = make(chan struct{})
	for i := range ra.slots {
		ra.slots[i] = aheadChunk{buf: getChunk()}
		ra.free <- i
	}
	ra.done.Add(1)
	go ra.run()
}

func (ra *readAhead) run() {
	defer ra.done.Done()
	for {
		var i int
		select {
		case i = <-ra.free:
		case <-ra.quit:
			return
		}
		s := &ra.slots[i]
		s.n, s.err = ra.src.Read((*s.buf)[:cap(*s.buf)])
		err := s.err
		select {
		case ra.full <- i:
		case <-ra.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// Read copies the slots read so far into p and blocks only while none is
// ready; after the bytes of the read that returned an error it returns that
// error.
func (ra *readAhead) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(ra.rest) == 0 {
			if ra.err != nil {
				break
			}
			var i int
			if n == 0 {
				i = <-ra.full
			} else {
				select {
				case i = <-ra.full:
				default:
					return n, nil
				}
			}
			if ra.cur >= 0 {
				ra.free <- ra.cur
			}
			s := &ra.slots[i]
			ra.cur, ra.rest, ra.err = i, (*s.buf)[:s.n], s.err
			continue
		}
		m := copy(p[n:], ra.rest)
		ra.rest = ra.rest[m:]
		n += m
	}
	if n == 0 && len(p) > 0 {
		return 0, ra.err
	}
	return n, nil
}

// stop ends the goroutine and joins it — the caller has closed the source,
// so a read in progress returns — and puts every buffer back in chunkPool.
func (ra *readAhead) stop() {
	close(ra.quit)
	ra.done.Wait()
	for i := range ra.slots {
		putChunk(ra.slots[i].buf)
	}
}
