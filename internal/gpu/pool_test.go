package gpu_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/jobs"
	"critload/internal/server"
)

// A pooled device is reachable only through client input, so client input
// must not be able to balloon what the idle list holds: a job's budgets
// cannot keep a device of their own, and an idle device keeps no earlier
// program.

// TestPoolKeyIgnoresBudgets runs timing jobs with 50 distinct max_cycles
// values: they all run on one device, and every reuse runs under its own
// job's bound, not the one the device last ran with.
func TestPoolKeyIgnoresBudgets(t *testing.T) {
	run := server.SimRunner()
	cfg := gpu.DefaultConfig()
	var dev *gpu.GPU
	for i := 0; i < 50; i++ {
		spec := jobs.Spec{Workload: "srad", Mode: jobs.ModeTiming, Size: 32, Seed: int64(i), MaxCycles: 10_000_000 + int64(i)}
		if _, err := run(context.Background(), spec); err != nil {
			t.Fatalf("max_cycles %d: %v", spec.MaxCycles, err)
		}
		g := gpu.TakeIdle(cfg)
		if g == nil {
			t.Fatalf("max_cycles %d: the run left no idle device", spec.MaxCycles)
		}
		if i > 0 && g != dev {
			t.Fatalf("max_cycles %d ran on a device other than the first job's", spec.MaxCycles)
		}
		dev = g
		g.Release()
	}
	spec := jobs.Spec{Workload: "srad", Mode: jobs.ModeTiming, Size: 32, Seed: 1, MaxCycles: 1000}
	if _, err := run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "exceeded 1000 cycles") {
		t.Fatalf("a reused device ignored the job's max_cycles 1000: err = %v", err)
	}
}

// TestIdleDeviceHoldsNoEarlierProgram runs 20 distinct family specs the way
// the timing job runner does. After each, the idle device the run released
// may hold classifications of that run's kernels only; and the runs must have
// shared a device at least once, or the check proves nothing.
func TestIdleDeviceHoldsNoEarlierProgram(t *testing.T) {
	cfg := gpu.DefaultConfig()
	var last *gpu.GPU
	reused := 0
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("family:stream?loads=%d&stride=%d", 1+i%4, 1+i/4)
		r, err := experiments.RunTimingCtx(context.Background(), name, experiments.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := gpu.TakeIdle(cfg)
		if g == nil {
			t.Fatalf("%s: the run left no idle device", name)
		}
		for _, k := range g.ClassifiedKernels() {
			if !slices.Contains(r.Instance.Prog.Kernels, k) {
				t.Fatalf("after %s the idle device still holds kernel %s of an earlier program", name, k.Name)
			}
		}
		if g == last {
			reused++
		}
		last = g
		g.Release()
	}
	if reused == 0 {
		t.Fatalf("20 jobs never shared a device")
	}
}
