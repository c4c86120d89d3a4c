package icnt

import (
	"testing"

	"critload/internal/memreq"
)

func collectNet(t *testing.T, numSrc, numDst int, cfg Config) (*Network, *[]int64) {
	t.Helper()
	var arrivals []int64
	n := MustNew(numSrc, numDst, cfg, func(p *Packet, now int64) {
		arrivals = append(arrivals, now)
	})
	return n, &arrivals
}

func TestLatencyRespected(t *testing.T) {
	n, arrivals := collectNet(t, 2, 2, Config{Latency: 8, InputQueueCap: 4})
	r := &memreq.Request{Block: 0}
	if !n.Inject(0, 1, r, ControlFlits, 0) {
		t.Fatal("inject failed")
	}
	for cyc := int64(0); cyc < 20; cyc++ {
		n.Step(cyc)
	}
	if len(*arrivals) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*arrivals))
	}
	if (*arrivals)[0] != 8 {
		t.Errorf("arrival at %d, want 8", (*arrivals)[0])
	}
}

func TestInputBufferBackpressure(t *testing.T) {
	n, _ := collectNet(t, 1, 1, Config{Latency: 1, InputQueueCap: 2})
	r := &memreq.Request{}
	if !n.Inject(0, 0, r, 1, 0) || !n.Inject(0, 0, r, 1, 0) {
		t.Fatal("first two injections must succeed")
	}
	if n.CanInject(0) {
		t.Errorf("CanInject true with full buffer")
	}
	if n.Inject(0, 0, r, 1, 0) {
		t.Errorf("third injection succeeded on full buffer")
	}
	// Draining restores capacity.
	n.Step(1)
	if !n.CanInject(0) {
		t.Errorf("CanInject false after drain")
	}
}

func TestFlitSerialization(t *testing.T) {
	// Two 4-flit packets from one source to one destination must be spaced
	// at least 4 cycles apart.
	n, arrivals := collectNet(t, 1, 1, Config{Latency: 0, InputQueueCap: 8})
	r := &memreq.Request{}
	n.Inject(0, 0, r, DataFlits, 0)
	n.Inject(0, 0, r, DataFlits, 0)
	for cyc := int64(0); cyc < 20; cyc++ {
		n.Step(cyc)
	}
	a := *arrivals
	if len(a) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(a))
	}
	if a[1]-a[0] < DataFlits {
		t.Errorf("packets spaced %d cycles, want >= %d", a[1]-a[0], DataFlits)
	}
}

func TestDestinationContention(t *testing.T) {
	// Two sources to one destination: second packet must wait for the
	// destination port.
	n, arrivals := collectNet(t, 2, 1, Config{Latency: 0, InputQueueCap: 8})
	r := &memreq.Request{}
	n.Inject(0, 0, r, 4, 0)
	n.Inject(1, 0, r, 4, 0)
	for cyc := int64(0); cyc < 20; cyc++ {
		n.Step(cyc)
	}
	a := *arrivals
	if len(a) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(a))
	}
	if a[1]-a[0] < 4 {
		t.Errorf("destination accepted two packets %d cycles apart", a[1]-a[0])
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	// Distinct src→dst pairs do not interfere: both deliver at the same cycle.
	n, arrivals := collectNet(t, 2, 2, Config{Latency: 2, InputQueueCap: 8})
	r := &memreq.Request{}
	n.Inject(0, 0, r, 4, 0)
	n.Inject(1, 1, r, 4, 0)
	for cyc := int64(0); cyc <= 2; cyc++ {
		n.Step(cyc)
	}
	a := *arrivals
	if len(a) != 2 || a[0] != 2 || a[1] != 2 {
		t.Errorf("arrivals = %v, want [2 2]", a)
	}
}

func TestFIFOOrderPerSource(t *testing.T) {
	var order []uint64
	n := MustNew(1, 2, Config{Latency: 0, InputQueueCap: 8}, func(p *Packet, now int64) {
		order = append(order, p.Req.ID)
	})
	n.Inject(0, 0, &memreq.Request{ID: 1}, 1, 0)
	n.Inject(0, 1, &memreq.Request{ID: 2}, 1, 0)
	n.Inject(0, 0, &memreq.Request{ID: 3}, 1, 0)
	for cyc := int64(0); cyc < 10; cyc++ {
		n.Step(cyc)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("delivery order = %v, want [1 2 3]", order)
	}
}

func TestPendingAndStats(t *testing.T) {
	n, _ := collectNet(t, 2, 2, Config{Latency: 1, InputQueueCap: 4})
	r := &memreq.Request{}
	n.Inject(0, 0, r, 1, 0)
	n.Inject(1, 1, r, 1, 0)
	if n.Pending() != 2 || n.QueueLen(0) != 1 {
		t.Errorf("Pending = %d, QueueLen(0) = %d", n.Pending(), n.QueueLen(0))
	}
	for cyc := int64(0); cyc < 5; cyc++ {
		n.Step(cyc)
	}
	if n.Pending() != 0 {
		t.Errorf("Pending = %d after drain", n.Pending())
	}
	if n.Injected != 2 || n.Delivered != 2 {
		t.Errorf("stats = %d/%d, want 2/2", n.Injected, n.Delivered)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, 1, Config{Latency: 1, InputQueueCap: 1}, func(*Packet, int64) {}); err == nil {
		t.Errorf("zero sources accepted")
	}
	if _, err := New(1, 1, Config{Latency: -1, InputQueueCap: 1}, func(*Packet, int64) {}); err == nil {
		t.Errorf("negative latency accepted")
	}
	if _, err := New(1, 1, Config{Latency: 1, InputQueueCap: 1}, nil); err == nil {
		t.Errorf("nil deliver accepted")
	}
}
