// Package jobs is the concurrency backbone of the service layer: a bounded
// worker pool, a content-addressed LRU result cache, and a job manager that
// deduplicates identical in-flight simulations. The pool is the template for
// every concurrent sweep in the repository — the experiments suite warms its
// run caches through it, and the critloadd daemon executes API-submitted
// classification and simulation jobs on it.
package jobs

import (
	"errors"
	"runtime"
	"sync"
)

// Pool errors.
var (
	// ErrPoolClosed is returned by submissions after Close.
	ErrPoolClosed = errors.New("jobs: pool closed")
	// ErrQueueFull is returned by TrySubmit when the task queue is at
	// capacity.
	ErrQueueFull = errors.New("jobs: queue full")
)

// Pool is a fixed-size worker pool draining a FIFO task queue. The zero
// value is not usable; construct with NewPool. Close drains: every task
// already accepted — queued or running — completes before Close returns.
//
// A task panic is not recovered: it crashes the process with its stack, as
// it would in a serial caller, rather than leaving whoever waits on the
// task's result blocked forever. Tasks that must survive a panic contain it
// themselves, as the job manager does around its runner.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool
	once   sync.Once
}

// NewPool starts workers goroutines consuming a queue of the given depth.
// workers <= 0 selects runtime.NumCPU(); queue <= 0 selects an unbuffered
// queue (submissions rendezvous with an idle worker).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func(), queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.tasks {
		fn()
	}
}

// Submit enqueues fn, blocking while the queue is full.
func (p *Pool) Submit(fn func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.tasks <- fn
	return nil
}

// TrySubmit enqueues fn without blocking, returning ErrQueueFull when no
// queue slot is free.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- fn:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops accepting tasks, lets the workers drain everything already
// queued, and waits for them to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.tasks)
	})
	p.wg.Wait()
}
