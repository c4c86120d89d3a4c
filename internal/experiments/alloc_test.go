package experiments

import (
	"runtime"
	"testing"
)

// TestColdTimingRunAllocations pins what a cold timing run allocates once a
// released device is waiting: a srad/32 run with a never-used seed, the
// daemon's short cold job. Building the device afresh for every run cost
// about 830 KB of it; reusing the device leaves about 250 KB, most of it the
// run's own memory pages and per-PC statistics. The smallest of three runs
// is taken, so two collections that happen to age the idle device out
// between two runs cannot fail the test.
func TestColdTimingRunAllocations(t *testing.T) {
	const bound = 350 << 10
	if _, err := RunTiming("srad", Options{Size: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for seed := int64(2); seed < 5; seed++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunTiming("srad", Options{Size: 32, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a cold srad/32 timing run allocated %d KB", least>>10)
	if least > bound {
		t.Errorf("a cold srad/32 timing run allocated %d KB, want at most %d KB", least>>10, bound>>10)
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
