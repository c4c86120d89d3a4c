// Package crashtest runs a real critloadd daemon as a child process so
// tests can kill it — SIGKILL, no warning, no flushing — at arbitrary
// points and assert what the durable job tier recovers on restart.
//
// The child is the test binary itself, re-executed: TestMain of a test
// package using this harness must call Main first, which hijacks the
// process when the child marker is in the environment and runs the daemon
// instead of the tests. That keeps the harness dependency-free (no
// separate binary to build or locate) while still exercising the real
// composition root (internal/daemon.Run), the real HTTP surface, the real
// journal fsync path, and real process death.
package crashtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"critload/internal/daemon"
	"critload/pkg/client"
)

// Environment keys wiring one child incarnation. The marker doubles as a
// guard: without it, Main is a no-op and the binary runs its tests.
const (
	envChild    = "CRITLOAD_CRASHTEST_CHILD"
	envDataDir  = "CRITLOAD_CRASHTEST_DATA_DIR"
	envAddrFile = "CRITLOAD_CRASHTEST_ADDR_FILE"
)

// Main hijacks the process when it is a re-executed crashtest child:
// it runs a durable daemon on the configured data dir until SIGTERM, then
// exits. Call it from TestMain before m.Run; in the parent process it
// returns immediately.
func Main() {
	if os.Getenv(envChild) == "" {
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	err := daemon.Run(ctx, daemon.Config{
		Addr:         "127.0.0.1:0",
		AddrFile:     os.Getenv(envAddrFile),
		DataDir:      os.Getenv(envDataDir),
		Workers:      2,
		Queue:        64,
		CacheEntries: 64,
		Grace:        30 * time.Second,
		IdleTimeout:  daemon.DefaultIdleTimeout,
		Log:          slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Daemon is one child incarnation of the durable daemon.
type Daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	waited chan error // closed once Wait has reaped the child
	werr   error
}

// Start re-executes the test binary as a durable daemon rooted at dataDir
// and waits until it is serving. Every Start over the same dataDir replays
// whatever journal the previous incarnation left behind.
func Start(t *testing.T, dataDir string) *Daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("crashtest: locating test binary: %v", err)
	}
	addrFile := filepath.Join(dataDir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crashtest: clearing addr file: %v", err)
	}

	d := &Daemon{stderr: &bytes.Buffer{}, waited: make(chan error, 1)}
	d.cmd = exec.Command(exe)
	d.cmd.Env = append(os.Environ(),
		envChild+"=1", envDataDir+"="+dataDir, envAddrFile+"="+addrFile)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("crashtest: starting child: %v", err)
	}
	go func() { d.waited <- d.cmd.Wait() }()

	// The child publishes its ephemeral address atomically once listening;
	// recovery replay happens before that, so a visible addr file means the
	// daemon is fully open for business.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		select {
		case err := <-d.waited:
			t.Fatalf("crashtest: child exited before serving: %v\n%s", err, d.stderr.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			d.Kill(t)
			t.Fatalf("crashtest: child never published an address\n%s", d.stderr.Bytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Addr is the daemon's bound listen address.
func (d *Daemon) Addr() string { return d.addr }

// Client builds a client for this incarnation with fast test retries.
func (d *Daemon) Client(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		BaseURL:        "http://" + d.addr,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("crashtest: building client: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// Kill SIGKILLs the child — the crash under test: no signal handler runs,
// no buffer flushes, no journal compaction. Idempotent once reaped.
func (d *Daemon) Kill(t *testing.T) {
	t.Helper()
	select {
	case d.werr = <-d.waited:
		return // already exited
	default:
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("crashtest: SIGKILL: %v", err)
	}
	d.werr = <-d.waited
}

// Shutdown asks the child to stop cleanly (SIGTERM, which drains jobs and
// compacts the journal) and requires a zero exit.
func (d *Daemon) Shutdown(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("crashtest: SIGTERM: %v", err)
	}
	select {
	case err := <-d.waited:
		if err != nil {
			t.Fatalf("crashtest: clean shutdown exited with %v\n%s", err, d.stderr.Bytes())
		}
	case <-time.After(60 * time.Second):
		d.Kill(t)
		t.Fatalf("crashtest: child ignored SIGTERM for 60s\n%s", d.stderr.Bytes())
	}
}
