package main

// The seven workloads. Names are fixed — later issues cite them — and each
// one's reason for existing is the `why` beside its name in BENCHMARK.json.
// Both kinds of caller wait for each reply before sending the next request,
// so every workload is a closed loop; service workloads run svcClients client
// goroutines, never more. Modelled caches start empty on every op.

// svcClients is the closed-loop client count of the service workloads: one
// per CPU of the 2-CPU reference box.
const svcClients = 2

type workloadKind int

const (
	kindTiming     workloadKind = iota // in-process timing simulation
	kindFunctional                     // in-process functional emulation
	kindCold                           // service: cold timing jobs, durable tier on
	kindCached                         // service: cached timing jobs, durable tier on
	kindClassify                       // service: classify / batch / ptx round trips
)

// workload is one benchmark workload's fixed shape.
type workload struct {
	Name string
	Kind workloadKind
	// Specs is what one op simulates (in-process workloads) or the job every
	// op submits (service job workloads).
	Specs []simSpec
	// SmokeSpecs replaces Specs under -smoke.
	SmokeSpecs []simSpec
	// CheckpointProbe marks the workload whose traced run also carries the
	// checkpoint.* probe, on the last of its specs.
	CheckpointProbe bool
}

func (w workload) inProcess() bool { return w.Kind == kindTiming || w.Kind == kindFunctional }

// tail is the percentile op_tail_ms reports when the sample supports it: p90
// for the service workloads, whose thousands of ops carry one, and the median
// for the in-process workloads, whose three or four ops per run carry none.
// (A p99 of millisecond ops moved by up to 38 % between ten-run series on the
// reference box; it is kept as the per-layer op_p99_ms.)
func (w workload) tail() float64 {
	if w.inProcess() {
		return 0.5
	}
	return 0.90
}

// Tuning shared by the service workloads.
const (
	// cachedSpecs is how many distinct jobs svc-cached pre-populates and then
	// draws from; cachedMemEntries is the daemon's in-memory LRU size, so
	// about 7/8 of the draws fall through to the on-disk result store.
	cachedSpecs      = 256
	cachedMemEntries = 32
	// coldSampleChecks is how many svc-cold ops are re-run in-process after
	// the timed window and compared byte for byte.
	coldSampleChecks = 8
	// classifyBatch is the batch size of the one ClassifyBatch step in the
	// svc-classify cycle.
	classifyBatch = 16
)

var srad32 = simSpec{Workload: "srad", Size: 32}

var workloadTable = []workload{
	{Name: "sim-compute", Kind: kindTiming,
		Specs:      []simSpec{{"mriq", 0}, {"htw", 0}, {"2mm", 96}},
		SmokeSpecs: []simSpec{{"2mm", 32}}},
	{Name: "sim-memlat", Kind: kindTiming,
		Specs:      []simSpec{{"grm", 192}},
		SmokeSpecs: []simSpec{{"grm", 48}}},
	{Name: "sim-nondet", Kind: kindTiming, CheckpointProbe: true,
		Specs:      []simSpec{{"bfs", 16384}, {"sssp", 8192}},
		SmokeSpecs: []simSpec{{"bfs", 256}, {"sssp", 256}}},
	{Name: "emu-functional", Kind: kindFunctional,
		Specs:      []simSpec{{"lu", 0}, {"bpr", 0}, {"bfs", 0}},
		SmokeSpecs: []simSpec{{"bfs", 256}}},
	{Name: "svc-cold", Kind: kindCold, Specs: []simSpec{srad32}},
	{Name: "svc-cached", Kind: kindCached, Specs: []simSpec{srad32}},
	{Name: "svc-classify", Kind: kindClassify},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specsFor returns the workload's specs for this run.
func (w workload) specsFor(smoke bool) []simSpec {
	if smoke && len(w.SmokeSpecs) > 0 {
		return w.SmokeSpecs
	}
	return w.Specs
}
