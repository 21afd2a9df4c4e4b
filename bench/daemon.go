package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/reprod from the checkout's sources. The go
// command caches the build, so every run after the first only re-links
// when a source changed.
func buildDaemon(ctx context.Context, benchDir, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "repro/cmd/reprod")
	cmd.Dir = benchDir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build cmd/reprod: %w\n%s", err, b)
	}
	return nil
}

// daemon is one reprod child. Its flags beyond the per-workload ones are
// fixed by the benchmark: -seed truthSeed -shards 2 -workers 0, ports from
// ":0" binds, no alert config.
type daemon struct {
	cmd      *exec.Cmd
	execAt   time.Time
	httpAddr string
	tcpAddr  string

	// The log reader alone writes the addresses, before it closes
	// listening; everyone else reads them after.
	listening  chan struct{} // closed once the HTTP address is logged
	replayDone chan struct{} // closed once a -replay run logs completion
	logDone    chan struct{} // closed at stderr EOF
}

// startDaemon execs reprod, captures its stderr to logPath and learns the
// bound addresses from it. The child dies with ctx.
func startDaemon(ctx context.Context, bin, logPath string, extra ...string) (*daemon, error) {
	args := append([]string{"-seed", fmt.Sprint(truthSeed), "-shards", "2", "-workers", "0", "-addr", "127.0.0.1:0"}, extra...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:        exec.CommandContext(ctx, bin, args...),
		listening:  make(chan struct{}),
		replayDone: make(chan struct{}),
		logDone:    make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	fmt.Fprintf(logf, "--- %s %s\n", filepath.Base(bin), strings.Join(args, " "))
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			d.observe(line)
		}
	}()
	return d, nil
}

// observe picks the bound addresses and the replay-completion mark out of
// reprod's log lines.
func (d *daemon) observe(line string) {
	after := func(mark string) (string, bool) {
		i := strings.Index(line, mark)
		if i < 0 {
			return "", false
		}
		return strings.Fields(line[i+len(mark):])[0], true
	}
	if a, ok := after("ingesting tcp records on "); ok {
		d.tcpAddr = a
	}
	if a, ok := after("reprod listening on "); ok && d.httpAddr == "" {
		d.httpAddr = a
		close(d.listening)
	}
	if strings.Contains(line, " done in ") && strings.Contains(line, "replay of ") {
		select {
		case <-d.replayDone:
		default:
			close(d.replayDone)
		}
	}
}

// await blocks until ch closes, the daemon's log ends (it exited) or ctx
// is done.
func (d *daemon) await(ctx context.Context, ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-d.logDone:
		// The log can end right after the awaited line.
		select {
		case <-ch:
			return nil
		default:
			return fmt.Errorf("reprod exited before %s", what)
		}
	case <-ctx.Done():
		return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
	}
}

// usage is what the kernel accounted to an exited child.
type usage struct {
	cpu   time.Duration
	rssMB float64
}

// stop sends SIGTERM — the daemon's ordered shutdown, which writes the
// final checkpoint — and waits for the exit; a child still alive after the
// grace period is killed and reported.
func (d *daemon) stop() (usage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	return d.wait(30 * time.Second)
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_, _ = d.wait(5 * time.Second)
}

func (d *daemon) wait(grace time.Duration) (usage, error) {
	select {
	case <-d.logDone:
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.logDone
		_ = d.cmd.Wait()
		return usage{}, fmt.Errorf("reprod did not exit within %v of SIGTERM; killed", grace)
	}
	err := d.cmd.Wait()
	st := d.cmd.ProcessState
	if st == nil {
		return usage{}, err
	}
	u := usage{cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() != 0 {
		return u, fmt.Errorf("reprod: %w", err)
	}
	return u, nil
}

// selfCPU is this process's own user+system time, for driver.cpu_s.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
