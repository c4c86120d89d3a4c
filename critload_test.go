package critload_test

import (
	"strings"
	"testing"

	"critload"
)

func TestClassifyKernelFacade(t *testing.T) {
	res, err := critload.ClassifyKernel(gatherSrc)
	if err != nil {
		t.Fatalf("ClassifyKernel: %v", err)
	}
	det, nondet := res.Counts()
	if det != 1 || nondet != 1 {
		t.Errorf("counts = %d/%d, want 1/1", det, nondet)
	}
	if res.Loads[0].Class != critload.Deterministic ||
		res.Loads[1].Class != critload.NonDeterministic {
		t.Errorf("classes = %v/%v", res.Loads[0].Class, res.Loads[1].Class)
	}
}

func TestClassifyRejectsBadSource(t *testing.T) {
	if _, err := critload.ClassifyKernel("not ptx"); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := critload.ClassifyKernel(".kernel a\nexit;\n.kernel b\nexit;"); err == nil ||
		!strings.Contains(err.Error(), "want 1") {
		t.Errorf("multi-kernel source accepted: %v", err)
	}
}

func TestWorkloadCatalog(t *testing.T) {
	names := critload.Workloads()
	if len(names) != 15 {
		t.Fatalf("workloads = %d, want 15", len(names))
	}
	cat := critload.WorkloadCatalog()
	if len(cat) != 15 {
		t.Fatalf("catalog = %d", len(cat))
	}
	counts := map[string]int{}
	for _, w := range cat {
		counts[w.Category]++
		if w.Description == "" || w.DataSet == "" {
			t.Errorf("%s: incomplete metadata", w.Name)
		}
	}
	if counts["linear"] != 5 || counts["image"] != 5 || counts["graph"] != 5 {
		t.Errorf("category counts = %v", counts)
	}
}

func TestClassifyWorkload(t *testing.T) {
	res, err := critload.ClassifyWorkload("bfs")
	if err != nil {
		t.Fatalf("ClassifyWorkload: %v", err)
	}
	k1, ok := res["bfs_k1"]
	if !ok {
		t.Fatalf("bfs_k1 missing: %v", res)
	}
	_, nondet := k1.Counts()
	if nondet != 2 {
		t.Errorf("bfs_k1 non-det loads = %d, want 2 (edges, visited)", nondet)
	}
	if _, err := critload.ClassifyWorkload("nope"); err == nil {
		t.Errorf("unknown workload accepted")
	}
}

func TestRunWorkloadFunctionalWithVerify(t *testing.T) {
	run, err := critload.RunWorkload("spmv", critload.RunOptions{
		Mode: critload.Functional, Size: 1024, Seed: 3, Verify: true,
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if run.Col.WarpInsts == 0 {
		t.Errorf("no instructions recorded")
	}
}

func TestRunWorkloadTimingProfiler(t *testing.T) {
	run, err := critload.RunWorkload("spmv", critload.RunOptions{
		Mode: critload.Timing, Size: 2048, Seed: 3,
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if run.Cycles == 0 {
		t.Errorf("no cycles recorded")
	}
	c := critload.ReadProfiler(run)
	if c["gld_request"] == 0 {
		t.Errorf("profiler counters empty: %v", c)
	}
}

func TestRunWorkloadRejectsVerifyOnTruncatedTiming(t *testing.T) {
	_, err := critload.RunWorkload("spmv", critload.RunOptions{
		Mode: critload.Timing, Size: 2048, MaxWarpInsts: 100, Verify: true,
	})
	if err == nil {
		t.Errorf("truncated verify accepted")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	const n = 512
	var outBase uint32
	memory, col, err := critload.Simulate(gatherSrc, n/64, 64, func(m *critload.Memory) []uint32 {
		idx := make([]uint32, n)
		b := make([]uint32, n)
		for i := range idx {
			idx[i] = uint32((i + 1) % n)
			b[i] = uint32(2 * i)
		}
		idxB := m.AllocU32s(idx)
		bB := m.AllocU32s(b)
		outBase = m.Alloc(4 * n)
		return []uint32{idxB, bB, outBase}
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// out[i] = b[(i+1)%n] = 2*((i+1)%n)
	for i := 0; i < n; i++ {
		want := uint32(2 * ((i + 1) % n))
		if got := memory.Read32(outBase + uint32(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if col.GLoadWarps[0] == 0 || col.GLoadWarps[1] == 0 {
		t.Errorf("category counts missing: %v", col.GLoadWarps)
	}
}

func TestDefaultGPUConfigMatchesTableII(t *testing.T) {
	cfg := critload.DefaultGPUConfig()
	if cfg.NumSMs != 14 {
		t.Errorf("NumSMs = %d, want 14", cfg.NumSMs)
	}
	if cfg.SM.L1.Bytes != 16*1024 || cfg.SM.L1.MSHREntries != 64 {
		t.Errorf("L1 config = %+v", cfg.SM.L1)
	}
	if cfg.L2.HitLatency != 120 {
		t.Errorf("ROP latency = %d, want 120", cfg.L2.HitLatency)
	}
	if cfg.DRAM.AccessLatency != 100 {
		t.Errorf("DRAM latency = %d, want 100", cfg.DRAM.AccessLatency)
	}
	if total := cfg.L2.Bytes * cfg.NumPartitions; total != 768*1024 {
		t.Errorf("total L2 = %d, want 768 KiB", total)
	}
	smCfg := critload.SMDefaultConfig()
	if smCfg.SharedMemBytes != 48*1024 {
		t.Errorf("shared memory = %d, want 48 KiB", smCfg.SharedMemBytes)
	}
}
