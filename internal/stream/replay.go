package stream

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"

	"repro/internal/batch"
	"repro/internal/logs"
)

// ErrStopped reports that ReplayDir was interrupted through its Stop
// channel. The engine is left as-is — open day intact, nothing flushed —
// which is what a shutting-down daemon wants: the final checkpoint
// preserves the partial day.
var ErrStopped = errors.New("stream: replay stopped")

// ReplayOptions parameterizes ReplayDir.
type ReplayOptions struct {
	// OnDay, when set, observes each day file once its last record has been
	// handed to the engine — the first moment the day's record count is
	// known, since the file is never held whole — and before the next day
	// begins.
	OnDay func(d batch.Day, records int)
	// Stop, when non-nil, aborts the replay once closed: at the next chunk
	// boundary (at most replayBatchSize records later). ReplayDir then
	// returns ErrStopped without flushing.
	Stop <-chan struct{}
}

// stopped reports whether Stop has been closed.
func (o *ReplayOptions) stopped() bool {
	select {
	case <-o.Stop: // nil Stop never fires
		return true
	default:
		return false
	}
}

// replayBatchSize is the chunk of records the loader decodes at a time and
// the batch ReplayDir hands to IngestBatch. Each chunk is also the stop
// boundary, so a shutting-down daemon waits at most one chunk for the
// replayer to land on a clean batch edge.
const replayBatchSize = 4096

// replayChunks is the number of record buffers a replay rotates: one being
// decoded, one being routed, and two of slack so that neither stage parks
// the moment the other is preempted. Replay memory is this many chunks
// whatever the day size.
const replayChunks = 4

// replayMsg is one step of a replay, sent by the loader in file order: a
// day-start (day set, with the day's leases) or a chunk of the current day's
// records.
type replayMsg struct {
	day    *batch.Day
	leases map[netip.Addr]string

	recs []logs.ProxyRecord // one of the rotating chunk buffers; may be empty
	last bool               // recs ends the day's file
	// err is terminal: the loader sends nothing after it. A decode error
	// rides with the records that parsed before the offending line.
	err error
}

// replayLoader is ReplayDir's first stage: the goroutine that owns the
// decoder, walks the day files and sends their chunks downstream, each
// decoded into a buffer taken from free.
type replayLoader struct {
	out  chan<- replayMsg
	free chan []logs.ProxyRecord
	quit <-chan struct{}
	dec  *logs.ProxyDecoder
}

// run loads the days in order and closes out when done, on error or on quit.
func (l *replayLoader) run(days []batch.Day) {
	defer close(l.out)
	// One pooled decoder serves every day file: the interning tables stay
	// warm across days (an enterprise's hosts and user agents barely change
	// overnight).
	l.dec = logs.GetProxyDecoder()
	defer logs.PutProxyDecoder(l.dec)
	for i := range days {
		if !l.loadDay(&days[i]) {
			return
		}
	}
}

// send delivers m unless the replay has quit, in which case m's buffer goes
// back to free (which has room for every buffer) for ReplayDir to collect.
func (l *replayLoader) send(m replayMsg) bool {
	select {
	case l.out <- m:
		return true
	case <-l.quit:
		if m.recs != nil {
			l.free <- m.recs
		}
		return false
	}
}

// loadDay sends d's day-start and then its file, a chunk at a time. It
// reports whether the next day should follow.
func (l *replayLoader) loadDay(d *batch.Day) bool {
	f, err := os.Open(d.ProxyPath)
	if err != nil {
		l.send(replayMsg{err: err})
		return false
	}
	defer f.Close()
	leases, err := batch.LoadLeases(*d)
	if err != nil {
		l.send(replayMsg{err: err})
		return false
	}
	if !l.send(replayMsg{day: d, leases: leases}) {
		return false
	}
	pr := logs.NewProxyReader(f, l.dec)
	for {
		var buf []logs.ProxyRecord
		select {
		case buf = <-l.free:
		case <-l.quit:
			return false
		}
		recs, err := pr.Next(buf, replayBatchSize)
		m := replayMsg{recs: recs, last: err == io.EOF}
		if err != nil && !m.last {
			m.err = fmt.Errorf("stream: replay %s: %w", d.ProxyPath, err)
		}
		if !l.send(m) {
			return false
		}
		if err != nil {
			return m.last
		}
	}
}

// ReplayDir streams an on-disk enterprise dataset (the cmd/datagen layout
// that internal/batch consumes) through the engine, day file by day file,
// and flushes the final day. Day boundaries follow the files — the same
// split the batch runner uses — so a replay reproduces the batch reports
// exactly.
//
// Replay is a two-stage pipeline in constant memory. A loader goroutine
// decodes each file replayBatchSize records at a time (logs.ProxyReader)
// into replayChunks rotating buffers; the calling goroutine opens each day
// and hands its chunks to the engine, so one chunk decodes while the
// previous one routes and the shards apply the one before, and no day is
// ever held whole. It follows that a malformed line is found only after the
// records before it have been ingested: like the TCP listener, replay
// delivers what parsed into the open day and then refuses — the error names
// the file and the 1-based line — where a loader of whole days would have
// refused the day before opening it. On every return the loader has exited
// and its buffers and decoder are back in their pools.
func ReplayDir(e *Engine, dir string, opts ReplayOptions) error {
	days, err := batch.DiscoverEnterprise(dir)
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("stream: no enterprise batches in %s", dir)
	}
	// Both channels have room for every buffer, so a stage holding one never
	// parks on handing it over; the number of buffers is what bounds the
	// loader's lead.
	msgs := make(chan replayMsg, replayChunks)
	free := make(chan []logs.ProxyRecord, replayChunks)
	for i := 0; i < replayChunks; i++ {
		free <- logs.GetProxyBuf(replayBatchSize)
	}
	quit := make(chan struct{})
	loader := replayLoader{out: msgs, free: free, quit: quit}
	go loader.run(days)
	defer func() {
		// Join the loader — it closes msgs on its way out — and collect the
		// buffers wherever the stop found them. They are cleared to their
		// full capacity: records are dropped as soon as the engine has them
		// (IngestBatch reduces synchronously), but their strings stay in a
		// recycled buffer until overwritten, and the pool must not pin them.
		close(quit)
		for m := range msgs {
			if m.recs != nil {
				free <- m.recs
			}
		}
		close(free)
		for buf := range free {
			logs.PutProxyBuf(buf[:cap(buf)])
		}
	}()

	var day *batch.Day
	var records int
	for m := range msgs {
		if m.day != nil {
			if opts.stopped() {
				return ErrStopped
			}
			if err := e.BeginDay(m.day.Date, m.leases); err != nil {
				return err
			}
			day, records = m.day, 0
			continue
		}
		err := ErrStopped
		if !opts.stopped() {
			err = e.IngestBatch(m.recs)
		}
		records += len(m.recs)
		if m.recs != nil {
			free <- m.recs[:0]
		}
		switch {
		case errors.Is(err, ErrStopped):
			return err
		case err != nil:
			return fmt.Errorf("stream: replay %s: %w", day.Date.Format("2006-01-02"), err)
		case m.err != nil:
			return m.err
		}
		if m.last && opts.OnDay != nil {
			opts.OnDay(*day, records)
		}
	}
	return e.Flush()
}
