package main

// layers.go is the benchmark's one adapter onto the repo's internal
// packages: every call into critload/internal/... is made here, one small
// function per span or probe. A change to an internal signature therefore
// has exactly one place in the benchmark to follow up; the runner, the
// statistics, -compare and the output code depend only on pkg/client, the
// critloadd binary and the standard library.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"critload/internal/cache"
	"critload/internal/checkpoint"
	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/isa"
	"critload/internal/jobs"
	"critload/internal/journal"
	"critload/internal/profiler"
	"critload/internal/ptx"
	"critload/internal/server"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// simSpec names one simulated program; Size 0 is the workload's default.
type simSpec struct {
	Workload string `json:"workload"`
	Size     int    `json:"size"`
}

func (s simSpec) String() string {
	if s.Size == 0 {
		return s.Workload + "/default"
	}
	return fmt.Sprintf("%s/%d", s.Workload, s.Size)
}

// simRun is one finished simulation. The harness reads the plain fields;
// the run itself stays behind this file.
type simRun struct {
	Spec      simSpec
	Cycles    int64
	Skipped   int64
	WarpInsts uint64
	Kernels   int // kernels in the program
	run       *experiments.Run
}

func wrapRun(spec simSpec, r *experiments.Run, err error) (*simRun, error) {
	if err != nil {
		return nil, err
	}
	return &simRun{Spec: spec, Cycles: r.Cycles, Skipped: r.SkippedCycles,
		WarpInsts: r.Col.WarpInsts, Kernels: len(r.Instance.Prog.Kernels), run: r}, nil
}

// runTiming is one timing simulation the way the daemon runs it:
// gpu.DefaultConfig() (fast-forward on, parallel off), caches empty.
func runTiming(ctx context.Context, spec simSpec, seed int64) (*simRun, error) {
	r, err := experiments.RunTimingCtx(ctx, spec.Workload, experiments.Options{Size: spec.Size, Seed: seed})
	return wrapRun(spec, r, err)
}

// runTimingNaive is runTiming on the naive cycle loop, the exactness oracle.
func runTimingNaive(ctx context.Context, spec simSpec, seed int64) (*simRun, error) {
	cfg := gpu.DefaultConfig()
	cfg.FastForward = false
	r, err := experiments.RunTimingCtx(ctx, spec.Workload,
		experiments.Options{Size: spec.Size, Seed: seed, GPU: &cfg})
	return wrapRun(spec, r, err)
}

// runFunctional is one functional-emulator run with the statistics listener
// on, the path behind mode:functional jobs.
func runFunctional(ctx context.Context, spec simSpec, seed int64) (*simRun, error) {
	r, err := experiments.RunFunctionalCtx(ctx, spec.Workload, experiments.Options{Size: spec.Size, Seed: seed})
	return wrapRun(spec, r, err)
}

// diffSimRuns lists the differences between two runs of the same work; empty
// means cycle counts and collectors are identical.
func diffSimRuns(a, b *simRun) []string { return experiments.DiffRuns(a.run, b.run) }

// verify checks the run's device memory against the workload's CPU reference.
func (s *simRun) verify() error { return s.run.Instance.Verify() }

// digest is the SHA-256 of the run's serialized statistics collector: two
// runs with equal digests produced identical statistics.
func (s *simRun) digest() string {
	w := checkpoint.NewWriter()
	s.run.Col.Snapshot(w)
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// profilerRead reads the Table III counters off the run.
func (s *simRun) profilerRead() { profiler.Read(s.run.Col) }

// classifyProgram classifies every kernel of the run's program.
func (s *simRun) classifyProgram() { dataflow.ClassifyProgram(s.run.Instance.Prog) }

// modelCounts are raw modelled-machine counters summed over runs; the ledger
// derives its exact-count metrics from them.
type modelCounts struct {
	Cycles, WarpInsts     float64
	SMCycles, LDSTBusy    float64
	TurnTotal, TurnOps    [2]float64 // index 0 = deterministic, 1 = non-deterministic
	Requests, GLoadWarps  [2]float64
	L1Acc, L1Miss, L1Fail [2]float64
	L2Acc, L2Miss         float64
}

func (m *modelCounts) add(s *simRun) {
	c := s.run.Col
	m.Cycles += float64(s.Cycles)
	m.WarpInsts += float64(c.WarpInsts)
	m.SMCycles += float64(c.SMCycles)
	m.LDSTBusy += float64(c.UnitBusy[isa.UnitLDST])
	for cat := stats.Det; cat < stats.NumCats; cat++ {
		m.TurnTotal[cat] += float64(c.Turnaround[cat].Total)
		m.TurnOps[cat] += float64(c.Turnaround[cat].Ops)
		m.Requests[cat] += float64(c.Requests[cat])
		m.GLoadWarps[cat] += float64(c.GLoadWarps[cat])
		m.L1Acc[cat] += float64(c.L1Acc[cat])
		m.L1Miss[cat] += float64(c.L1Miss[cat])
		for o := cache.Outcome(0); o < cache.NumOutcomes; o++ {
			if o.IsReservationFail() {
				m.L1Fail[cat] += float64(c.L1Outcomes[cat][o])
			}
		}
		m.L2Acc += float64(c.L2Acc[cat])
		m.L2Miss += float64(c.L2Miss[cat])
	}
}

// setupTraced is Workload.Setup inside a "workloads.setup" span.
func setupTraced(rec *recorder, parent, op int, spec simSpec, seed int64) (w *workloads.Workload, inst *workloads.Instance, err error) {
	w, ok := workloads.Get(spec.Workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	rec.time("workloads.setup", parent, op, func() {
		inst, err = w.Setup(workloads.Params{Size: spec.Size, Seed: seed})
	})
	return w, inst, err
}

// runTimingTraced is runTiming taken apart so that each public call gets a
// span: Workload.Setup, gpu.New, Instance.Run and, under it, every
// GPU.LaunchKernel. It must stay step-for-step what experiments.RunTimingCtx
// does with default options; the golden digests catch a drift.
func runTimingTraced(ctx context.Context, rec *recorder, parent, op int, spec simSpec, seed int64) (*simRun, error) {
	w, inst, err := setupTraced(rec, parent, op, spec, seed)
	if err != nil {
		return nil, err
	}
	col := stats.New()
	cfg := gpu.DefaultConfig()
	cfg.MaxCycles = experiments.DefaultMaxCycles
	var g *gpu.GPU
	rec.time("gpu.new", parent, op, func() { g, err = gpu.New(cfg, inst.Mem, col) })
	if err != nil {
		return nil, err
	}
	host := rec.begin("workloads.host", parent, op)
	err = inst.Run(func(l *emu.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := rec.begin("gpu.launch", host, op)
		defer rec.end(id)
		return g.LaunchKernel(l)
	})
	rec.end(host)
	if err != nil {
		return nil, err
	}
	return wrapRun(spec, &experiments.Run{Workload: w, Instance: inst, Col: col,
		Cycles: g.Cycle(), SkippedCycles: g.SkippedCycles}, nil)
}

// runFunctionalTraced is runFunctional taken apart the same way: spans around
// Workload.Setup, the per-kernel dataflow.Classify, Instance.Run and, under
// it, every emu.Run (through workloads.FunctionalExecutor).
func runFunctionalTraced(ctx context.Context, rec *recorder, parent, op int, spec simSpec, seed int64) (*simRun, error) {
	w, inst, err := setupTraced(rec, parent, op, spec, seed)
	if err != nil {
		return nil, err
	}
	col := stats.New()
	class := map[string]stats.Classifier{}
	rec.time("dataflow.classify", parent, op, func() {
		for _, k := range inst.Prog.Kernels {
			res := dataflow.Classify(k)
			class[k.Name] = func(pc uint32) bool {
				li, ok := res.Load(int(pc) / 8)
				return ok && li.Class == dataflow.NonDeterministic
			}
		}
	})
	var current stats.Classifier
	inner := workloads.FunctionalExecutor(inst.Mem, func(ctaID int, _ *emu.Warp, s *emu.Step) {
		col.ObserveStep(ctaID, s, current)
	}, 0)
	host := rec.begin("workloads.host", parent, op)
	err = inst.Run(func(l *emu.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		current = class[l.Kernel.Name]
		id := rec.begin("emu.run", host, op)
		defer rec.end(id)
		return inner(l)
	})
	rec.end(host)
	if err != nil {
		return nil, err
	}
	return wrapRun(spec, &experiments.Run{Workload: w, Instance: inst, Col: col}, nil)
}

// ---------------------------------------------------------------------------
// Classify corpus.

// corpusKernel is the in-process classification of one kernel: the reference
// the daemon's answers are checked against.
type corpusKernel struct {
	Name string
	D, N int
}

// corpusProgram is one Table I program as PTX text with its reference
// classification.
type corpusProgram struct {
	Name    string
	PTX     string
	Kernels []corpusKernel
}

// classifyCorpus renders the fifteen Table I programs (Kernel.Disassemble of
// every kernel) and classifies each in-process.
func classifyCorpus(seed int64) ([]corpusProgram, error) {
	var out []corpusProgram
	for _, w := range workloads.All() {
		inst, err := w.Setup(workloads.Params{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.Name, err)
		}
		p := corpusProgram{Name: w.Name}
		res := dataflow.ClassifyProgram(inst.Prog)
		for _, k := range inst.Prog.Kernels {
			p.PTX += k.Disassemble()
			d, n := res[k.Name].Counts()
			p.Kernels = append(p.Kernels, corpusKernel{Name: k.Name, D: d, N: n})
		}
		out = append(out, p)
	}
	return out, nil
}

// probeParseClassify times ptx.Parse and dataflow.ClassifyProgram over the
// corpus, reps times each, as spans outside any op.
func probeParseClassify(rec *recorder, corpus []corpusProgram, reps int) error {
	for i := 0; i < reps; i++ {
		for _, p := range corpus {
			var prog *ptx.Program
			var err error
			rec.time("ptx.parse", 0, 0, func() { prog, err = ptx.Parse(p.PTX) })
			if err != nil {
				return fmt.Errorf("parsing %s: %w", p.Name, err)
			}
			rec.time("dataflow.classify", 0, 0, func() { dataflow.ClassifyProgram(prog) })
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Service-side probes.

// jobSpecOf is the daemon-side spec of a timing job.
func jobSpecOf(spec simSpec, seed int64) jobs.Spec {
	return jobs.Spec{Workload: spec.Workload, Mode: jobs.ModeTiming, Size: spec.Size, Seed: seed}
}

// referenceResult runs a timing job in-process through the daemon's own
// runner and returns the result JSON a correct daemon must serve for it.
func referenceResult(ctx context.Context, spec simSpec, seed int64) ([]byte, error) {
	res, err := server.SimRunner()(ctx, jobSpecOf(spec, seed))
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// probeEncode times the result encode (SimRunner result → json.Marshal) and
// returns the payload it produced.
func probeEncode(ctx context.Context, rec *recorder, spec simSpec, seed int64, reps int) ([]byte, error) {
	res, err := server.SimRunner()(ctx, jobSpecOf(spec, seed))
	if err != nil {
		return nil, err
	}
	var payload []byte
	for i := 0; i < reps; i++ {
		rec.time("server.encode", 0, 0, func() { payload, err = json.Marshal(res) })
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// probeJournal times Journal.Append of n submission-sized records in a fresh
// journal under dir, with and without fsync.
func probeJournal(rec *recorder, dir string, n int) error {
	data, err := json.Marshal(jobSpecOf(simSpec{Workload: "srad", Size: 32}, 1))
	if err != nil {
		return err
	}
	for _, mode := range []struct {
		name string
		sync bool
	}{{"journal.append_sync", true}, {"journal.append_nosync", false}} {
		j, err := journal.Open(filepath.Join(dir, mode.name), journal.Options{}, nil)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r := journal.Record{Type: journal.TypeSubmitted, At: time.Now(),
				ID: fmt.Sprintf("j%08d", i), Data: data}
			rec.time(mode.name, 0, 0, func() { err = j.Append(r, mode.sync) })
			if err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	return nil
}

// probeResultStore times ResultStore.Put then Get of n copies of payload
// under distinct keys in a fresh store under dir.
func probeResultStore(rec *recorder, dir string, payload []byte, n int) error {
	store, err := jobs.OpenResultStore(filepath.Join(dir, "results"), 0)
	if err != nil {
		return err
	}
	keys := make([]jobs.Key, n)
	for i := range keys {
		keys[i] = jobSpecOf(simSpec{Workload: "srad", Size: 32}, int64(i)).Key()
		rec.time("jobs.resultstore_put", 0, 0, func() { err = store.Put(keys[i], json.RawMessage(payload)) })
		if err != nil {
			return err
		}
	}
	for _, k := range keys {
		var ok bool
		rec.time("jobs.resultstore_get", 0, 0, func() { _, ok = store.Get(k) })
		if !ok {
			return fmt.Errorf("result store lost key %s", k)
		}
	}
	return nil
}

// probeSubmitWait times Manager.Submit → Wait for n cold jobs, svcClients at
// a time as in the service workloads, on a manager configured like the
// durable daemon (journal with fsync, result store, as many workers) but
// with no HTTP in front of it.
func probeSubmitWait(ctx context.Context, rec *recorder, dir string, spec simSpec, firstSeed int64, n int) error {
	store, err := jobs.OpenResultStore(filepath.Join(dir, "mgr-results"), 0)
	if err != nil {
		return err
	}
	m, err := jobs.NewManager(jobs.Config{Workers: svcClients, Runner: server.SimRunner(),
		JournalDir: filepath.Join(dir, "mgr-journal"), Results: store})
	if err != nil {
		return err
	}
	defer m.Close(ctx)
	return eachIndex(n, func(i int) error {
		id := rec.begin("jobs.submit_wait", 0, 0)
		info, err := m.Submit(jobSpecOf(spec, firstSeed+int64(i)))
		if err == nil {
			info, err = m.Wait(ctx, info.ID)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		if info.State != jobs.StateDone {
			return fmt.Errorf("in-process job %s ended %s: %s", info.ID, info.State, info.Error)
		}
		return nil
	})
}

// checkpointProbe is the cost of incremental simulation on one spec.
type checkpointProbe struct {
	SaveMS, WarmMS float64 // cold-and-saving run, then the warm run
	DiskMB         float64
}

// probeCheckpoint runs spec twice against a fresh checkpoint store under dir:
// first cold, saving a checkpoint at every launch boundary, then warm. Both
// runs must reproduce want's statistics exactly.
func probeCheckpoint(ctx context.Context, dir string, spec simSpec, seed int64, want *simRun) (checkpointProbe, error) {
	var p checkpointProbe
	store, err := checkpoint.Open(filepath.Join(dir, "checkpoints"), 0)
	if err != nil {
		return p, err
	}
	opts := experiments.Options{Size: spec.Size, Seed: seed, Checkpoints: store}
	for i, ms := range []*float64{&p.SaveMS, &p.WarmMS} {
		start := time.Now()
		r, err := experiments.RunTimingCtx(ctx, spec.Workload, opts)
		*ms = float64(time.Since(start).Nanoseconds()) / 1e6
		got, err := wrapRun(spec, r, err)
		if err != nil {
			return p, err
		}
		if d := diffSimRuns(want, got); len(d) > 0 {
			return p, fmt.Errorf("checkpointed run %d of %s diverges: %v", i, spec, d)
		}
		if i == 1 && r.WarmStartIndex == 0 {
			return p, fmt.Errorf("second checkpointed run of %s started cold", spec)
		}
	}
	p.DiskMB = float64(store.Stats().Bytes) / 1e6
	return p, nil
}
