package experiments

import (
	"runtime"
	"testing"
)

// TestColdTimingRunAllocations pins what a cold timing run allocates once a
// released device is waiting: a srad/32 run with a never-used seed, the
// daemon's short cold job. Building the device afresh for every run cost
// about 830 KB of it; reusing the device leaves about 120 KB, most of it the
// run's own memory pages and per-PC statistics. Each run follows a
// collection, as the benchmark's meter does, and every run is held to the
// bound: an idle device outlives collections, so each run finds one.
func TestColdTimingRunAllocations(t *testing.T) {
	const bound = 350 << 10
	if _, err := RunTiming("srad", Options{Size: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 5; seed++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunTiming("srad", Options{Size: 32, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a cold srad/32 timing run (seed %d) allocated %d KB", seed, got>>10)
		if got > bound {
			t.Errorf("a cold srad/32 timing run (seed %d) allocated %d KB, want at most %d KB", seed, got>>10, bound>>10)
		}
	}
}

// BenchmarkColdTimingRun is one cold srad/32 timing run per iteration, each
// with a new seed, the way the daemon runs a never-seen job.
func BenchmarkColdTimingRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTiming("srad", Options{Size: 32, Seed: int64(1000 + i)}); err != nil {
			b.Fatal(err)
		}
	}
}
