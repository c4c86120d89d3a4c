//go:build unix

package jobs

import (
	"context"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestSubmitReadsStoreOutsideLock: Submit reads the on-disk store before
// it takes the manager lock, so a slow result read stalls only its own
// submission. A FIFO stands in for key A's result file: a reader opening
// it blocks until a writer appears, and then reads until the writer
// closes. While A's Submit is inside that read, a Submit of another key
// must complete.
func TestSubmitReadsStoreOutsideLock(t *testing.T) {
	rs, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 1, Results: rs, Runner: instantRunner})
	a, b := spec("a"), spec("b")
	fifo := resultPath(rs, a.Key())
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatalf("mkfifo: %v", err)
	}

	type submitted struct {
		info JobInfo
		err  error
	}
	submit := func(s Spec) <-chan submitted {
		ch := make(chan submitted, 1)
		go func() {
			info, err := m.Submit(s)
			ch <- submitted{info, err}
		}()
		return ch
	}
	aDone := submit(a)
	// A non-blocking open for writing succeeds only once a reader holds
	// the FIFO open: then A's Submit is inside its store read, and stays
	// there until w is closed.
	var w *os.File
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if w, err = os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Submit(a) never opened its result file: %v", err)
		}
	}

	bDone := submit(b)
	var bRes submitted
	blocked := false
	select {
	case bRes = <-bDone:
	case <-time.After(5 * time.Second):
		blocked = true
		t.Error("Submit(b) blocked while Submit(a) was reading the store: the read holds the manager lock")
	}

	// A's read now sees an empty file, which reads as absent: A runs.
	w.Close()
	aRes := <-aDone
	if blocked {
		bRes = <-bDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range []submitted{aRes, bRes} {
		if r.err != nil {
			t.Fatalf("Submit: %v", r.err)
		}
		if info, err := m.Wait(ctx, r.info.ID); err != nil || info.State != StateDone {
			t.Fatalf("job %s = %+v, %v; want done", r.info.ID, info, err)
		}
	}
}
