package stream

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/logs"
)

// TestReplayDirStreams proves replay ingests a day before it has read the
// day's file to the end. The day file is a FIFO whose writer sends two
// chunks, then refuses to write the rest until the engine reports at least
// one chunk ingested: a replay that materialises the day first waits for an
// end of file the writer will only send after the ingest it is waiting to
// start (the writer gives up after ten seconds, fails the test and lets
// such a replay finish).
func TestReplayDirStreams(t *testing.T) {
	const tail = 1000
	dir := t.TempDir()
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	fifo := filepath.Join(dir, "proxy-2014-03-01.tsv")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leases-2014-03-01.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	e := newReplayEngine(2)
	wrote := make(chan error, 1)
	go func() {
		wrote <- func() error {
			f, err := os.OpenFile(fifo, os.O_WRONLY, 0) // returns once ReplayDir opens the day
			if err != nil {
				return err
			}
			defer f.Close()
			w := logs.NewProxyWriter(f)
			write := func(from, to int) error {
				for i := from; i < to; i++ {
					if err := w.Write(replayRecord(day, i)); err != nil {
						return err
					}
				}
				return w.Flush()
			}
			if err := write(0, 2*replayBatchSize); err != nil {
				return err
			}
			deadline := time.Now().Add(10 * time.Second)
			for e.Stats().TotalRecords < replayBatchSize {
				if time.Now().After(deadline) {
					t.Error("replay ingested nothing while the day file was still being written")
					break
				}
				time.Sleep(time.Millisecond)
			}
			return write(2*replayBatchSize, 2*replayBatchSize+tail)
		}()
	}()

	got, err := replayDays(e, dir, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if want := 2*replayBatchSize + tail; len(got) != 1 || got[0] != want {
		t.Errorf("OnDay saw %v, want one day of %d records", got, want)
	}
	e.Close()
	awaitGoroutines(t, before)
}
