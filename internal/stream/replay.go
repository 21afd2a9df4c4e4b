package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

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

// replayBatchSize is the chunk of records ReplayDir decodes at a time and
// hands to AcceptBatch. Each chunk is also the stop boundary, so a
// shutting-down daemon waits at most one chunk for the replayer to land on a
// clean batch edge.
const replayBatchSize = 4096

// ReplayDir streams an on-disk enterprise dataset (the cmd/datagen layout
// that internal/batch consumes) through the engine, day file by day file,
// and flushes the final day. Day boundaries follow the files — the same
// split the batch runner uses — so a replay reproduces the batch reports
// exactly.
//
// Replay is one loop on the calling goroutine, in constant memory: it
// decodes each file replayBatchSize records at a time (logs.ProxyReader)
// into a pooled buffer and hands the chunk to AcceptBatch, whose routing
// goroutine puts the buffer back once the records are reduced. The next
// chunk decodes while the previous ones route, and no day is ever held
// whole; the engine's in-flight bound (2 × Shards accepted batches) is the
// only lead the replay has on routing. It follows that a malformed line is
// found only after the records before it have been accepted: like the TCP
// listener, replay delivers what parsed into the open day and then refuses —
// the error names the file and the 1-based line — where a loader of whole
// days would have refused the day before opening it. On every return the
// replay's batches have all been routed, and only then do its decoder and
// buffers go back to their pools.
func ReplayDir(e *Engine, dir string, opts ReplayOptions) error {
	days, err := batch.DiscoverEnterprise(dir)
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("stream: no enterprise batches in %s", dir)
	}
	// One pooled decoder serves every day file: the interning tables stay
	// warm across days (an enterprise's hosts and user agents barely change
	// overnight). The records of a routing chunk point into its text block,
	// so it goes back only once every chunk is routed.
	dec := logs.GetProxyDecoder()
	var routing sync.WaitGroup
	defer func() {
		routing.Wait()
		logs.PutProxyDecoder(dec)
	}()
	for i := range days {
		if err := replayDay(e, &days[i], dec, &routing, &opts); err != nil {
			return err
		}
	}
	return e.Flush()
}

// replayDay opens d in the engine and accepts its file a chunk at a time;
// routing counts the chunks still routing.
func replayDay(e *Engine, d *batch.Day, dec *logs.ProxyDecoder, routing *sync.WaitGroup, opts *ReplayOptions) error {
	f, err := os.Open(d.ProxyPath)
	if err != nil {
		return err
	}
	defer f.Close()
	leases, err := batch.LoadLeases(*d)
	if err != nil {
		return err
	}
	if opts.stopped() {
		return ErrStopped
	}
	if err := e.BeginDay(d.Date, leases); err != nil {
		return err
	}
	pr := logs.NewProxyReader(f, dec)
	records := 0
	for {
		recs, rerr := pr.Next(logs.GetProxyBuf(replayBatchSize), replayBatchSize)
		if opts.stopped() {
			logs.PutProxyBuf(recs)
			return ErrStopped
		}
		routing.Add(1)
		if err := e.AcceptBatch(recs, func() { logs.PutProxyBuf(recs); routing.Done() }); err != nil {
			return fmt.Errorf("stream: replay %s: %w", d.Date.Format("2006-01-02"), err)
		}
		records += len(recs)
		switch {
		case rerr == io.EOF:
			if opts.OnDay != nil {
				opts.OnDay(*d, records)
			}
			return nil
		case rerr != nil:
			return fmt.Errorf("stream: replay %s: %w", d.ProxyPath, rerr)
		}
	}
}
