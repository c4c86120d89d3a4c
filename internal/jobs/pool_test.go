package jobs

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(4, 16)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPoolSingleWorkerPreservesFIFO(t *testing.T) {
	p := NewPool(1, 32)
	var (
		mu  sync.Mutex
		got []int
	)
	for i := 0; i < 20; i++ {
		i := i
		if err := p.Submit(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	for i, v := range got {
		if v != i {
			t.Fatalf("task order %v not FIFO", got)
		}
	}
}

// TestPoolShutdownWhileBusy closes the pool while workers are mid-task and
// more tasks wait in the queue: Close must drain everything it accepted.
func TestPoolShutdownWhileBusy(t *testing.T) {
	p := NewPool(2, 16)
	var started, finished atomic.Int64
	release := make(chan struct{})
	for i := 0; i < 10; i++ {
		if err := p.Submit(func() {
			started.Add(1)
			<-release
			finished.Add(1)
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Wait for the two workers to be busy, then close concurrently.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while tasks were still blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if got := finished.Load(); got != 10 {
		t.Fatalf("drained %d tasks, want 10", got)
	}
}

// TestPoolTaskPanicCrashes pins that the pool does not swallow a task
// panic: the panicking task exits the process non-zero with the panic value
// on stderr, run here in a child copy of the test binary.
func TestPoolTaskPanicCrashes(t *testing.T) {
	if os.Getenv("CRITLOAD_POOL_PANIC_CHILD") == "1" {
		p := NewPool(1, 1)
		p.Submit(func() { panic("task boom") })
		p.Close()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPoolTaskPanicCrashes$")
	cmd.Env = append(os.Environ(), "CRITLOAD_POOL_PANIC_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child with a panicking task exited %v, want a non-zero status", err)
	}
	if !strings.Contains(stderr.String(), "panic: task boom") {
		t.Errorf("child stderr does not carry the panic value:\n%s", stderr.String())
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.TrySubmit(func() {}); err != ErrPoolClosed {
		t.Fatalf("TrySubmit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // second Close must be a no-op, not a panic
}

func TestPoolTrySubmitQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	release := make(chan struct{})
	defer close(release)
	// Occupy the worker, then fill the single queue slot.
	if err := p.Submit(func() { <-release }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The worker may not have picked up the first task yet; TrySubmit
	// until the queue slot itself is taken.
	deadline := time.Now().Add(time.Second)
	full := false
	for time.Now().Before(deadline) {
		if err := p.TrySubmit(func() { <-release }); err == ErrQueueFull {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("TrySubmit never reported ErrQueueFull")
	}
}
