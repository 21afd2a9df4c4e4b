package stream

import (
	"errors"
	"fmt"
	"time"

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
	// Speed is the time-compression factor: 1 paces records at their
	// original inter-arrival gaps, 60 replays an hour per minute, and <= 0
	// streams as fast as the engine accepts (the default, and what the
	// equivalence tests use).
	Speed float64
	// MaxGap caps a single pacing sleep (default 10s at any speed), so
	// overnight gaps in a day's traffic don't stall a demo replay.
	MaxGap time.Duration
	// OnDay, when set, observes each day file before it is streamed.
	OnDay func(d batch.Day, records int)
	// Stop, when non-nil, aborts the replay once closed: at the next
	// batch boundary when unpaced, and additionally out of any pacing
	// sleep. ReplayDir then returns ErrStopped without flushing.
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

// ReplayDir streams an on-disk enterprise dataset (the cmd/datagen layout
// that internal/batch consumes) through the engine, day file by day file,
// and flushes the final day. Day boundaries follow the files — the same
// split the batch runner uses — so a replay reproduces the batch reports
// exactly; Speed only changes how fast that happens.
func ReplayDir(e *Engine, dir string, opts ReplayOptions) error {
	days, err := batch.DiscoverEnterprise(dir)
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("stream: no enterprise batches in %s", dir)
	}
	if opts.MaxGap <= 0 {
		opts.MaxGap = 10 * time.Second
	}
	// One pooled decoder and one pooled record buffer serve every day file:
	// the interning tables stay warm across days (an enterprise's hosts and
	// user agents barely change overnight) and, after the first day grows
	// the buffer, per-day loading stops allocating. Records are dropped as
	// soon as the engine has them — IngestBatch reduces synchronously — so
	// reusing the buffer across days is safe.
	dec := logs.GetProxyDecoder()
	buf := logs.GetProxyBuf(replayBatchSize)
	defer func() {
		logs.PutProxyDecoder(dec)
		logs.PutProxyBuf(buf)
	}()
	for _, d := range days {
		if opts.stopped() {
			return ErrStopped
		}
		recs, leases, err := batch.LoadProxyDayInto(d, dec, buf[:0])
		// Reconcile buffer ownership before acting on the error: the
		// deferred PutProxyBuf must cover whatever the load wrote, even
		// when the load failed partway.
		buf = adoptGrown(buf, recs)
		if err != nil {
			return err
		}
		if opts.OnDay != nil {
			opts.OnDay(d, len(recs))
		}
		if err := e.BeginDay(d.Date, leases); err != nil {
			return err
		}
		if opts.Speed <= 0 {
			// Unpaced replay takes the batched hot path: fixed-size chunks
			// amortize the engine lock and the per-shard channel sends and
			// bound each shard queue entry. They do not bound memory — the
			// whole day is already decoded in recs. Each chunk is also the
			// stop boundary, so a shutting-down daemon waits at most one
			// chunk for the replayer to land on a clean batch edge.
			for len(recs) > 0 {
				if opts.stopped() {
					return ErrStopped
				}
				n := min(replayBatchSize, len(recs))
				if err := e.IngestBatch(recs[:n]); err != nil {
					return fmt.Errorf("stream: replay %s: %w", d.Date.Format("2006-01-02"), err)
				}
				recs = recs[n:]
			}
			continue
		}
		var prev time.Time
		for i := range recs {
			r := &recs[i]
			if !prev.IsZero() && r.Time.After(prev) {
				gap := time.Duration(float64(r.Time.Sub(prev)) / opts.Speed)
				if gap > opts.MaxGap {
					gap = opts.MaxGap
				}
				if gap > 0 && !sleepUnlessStopped(gap, opts.Stop) {
					return ErrStopped
				}
			}
			prev = r.Time
			if opts.stopped() {
				return ErrStopped
			}
			if err := e.IngestBatch(recs[i : i+1]); err != nil {
				return fmt.Errorf("stream: replay %s: %w", d.Date.Format("2006-01-02"), err)
			}
		}
	}
	return e.Flush()
}

// adoptGrown reconciles record-buffer ownership after an append-based day
// load. When the load outgrew the pooled buffer, append reallocated: the
// grown slice becomes the buffer, and the outgrown backing array goes back
// to the pool through PutProxyBuf — which clears it, so the pool never
// pins the interned strings of a day nobody holds anymore. When the load
// fit, the buffer keeps its backing array, extended to the longest extent
// ever written so the deferred PutProxyBuf clears records from earlier,
// longer days too, not just the final day's prefix.
func adoptGrown(buf, recs []logs.ProxyRecord) []logs.ProxyRecord {
	switch {
	case cap(recs) > cap(buf):
		logs.PutProxyBuf(buf)
		return recs
	case len(recs) > len(buf):
		// Same backing array (append only reallocates upward), longer
		// extent.
		return recs
	}
	return buf
}

// sleepUnlessStopped sleeps for gap, returning false early if stop closes
// first. A nil stop channel never fires, so it degrades to a plain sleep.
func sleepUnlessStopped(gap time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(gap)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// replayBatchSize is the chunk ReplayDir hands to IngestBatch when pacing
// is off.
const replayBatchSize = 4096
