package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSuiteConcurrentFunctionalDedup hammers one workload from many
// goroutines: the singleflight suite must execute it exactly once, so every
// caller observes the same *Run.
func TestSuiteConcurrentFunctionalDedup(t *testing.T) {
	s := NewSuite(Options{Size: 32, Seed: 1})
	const n = 8
	runs := make([]*Run, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			runs[i], errs[i] = s.Functional("2mm")
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if runs[i] != runs[0] {
			t.Fatalf("goroutine %d got a distinct run: the workload executed twice", i)
		}
	}
}

// TestSuiteConcurrentMixed exercises functional and timing dedup at once
// under the race detector.
func TestSuiteConcurrentMixed(t *testing.T) {
	s := NewSuite(Options{Size: 32, Seed: 2, MaxWarpInsts: 20_000})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.Functional("2mm"); err != nil {
				t.Errorf("Functional: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.Timing("2mm"); err != nil {
				t.Errorf("Timing: %v", err)
			}
		}()
	}
	wg.Wait()
}

// functionalArtifacts renders every functional figure/table of a suite into
// one comparable string.
func functionalArtifacts(t *testing.T, s *Suite) string {
	t.Helper()
	var out string
	add := func(name string, rows any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out += fmt.Sprintf("== %s ==\n%+v\n", name, rows)
	}
	r1, err := s.Table1()
	add("table1", r1, err)
	f1, err := s.Figure1()
	add("fig1", f1, err)
	f2, err := s.Figure2()
	add("fig2", f2, err)
	f9, err := s.Figure9()
	add("fig9", f9, err)
	f10, err := s.Figure10()
	add("fig10", f10, err)
	f11, err := s.Figure11()
	add("fig11", f11, err)
	f12, err := s.Figure12()
	add("fig12", f12, err)
	return out
}

// TestWarmSweepMatchesSerial runs the full fifteen-workload functional sweep
// twice — once serially, once warmed through the worker pool — and requires
// byte-identical artifact output: completion order must never leak into the
// figures.
func TestWarmSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	opts := Options{Size: 64, Seed: 3}
	serial := functionalArtifacts(t, NewSuite(opts))

	warmed := NewSuite(opts)
	if err := warmed.Warm(context.Background(), 8, []Artifact{artifactNamed(t, "table1")}); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	parallel := functionalArtifacts(t, warmed)

	if serial != parallel {
		t.Fatalf("parallel sweep output diverges from serial:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

// artifactNamed returns the entry of Artifacts with the given name.
func artifactNamed(t *testing.T, name string) Artifact {
	t.Helper()
	for _, a := range Artifacts {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no artifact %q", name)
	return Artifact{}
}

// renderMarkdown renders artifacts on s into one comparable string.
func renderMarkdown(t *testing.T, s *Suite, arts ...Artifact) string {
	t.Helper()
	var out strings.Builder
	for _, a := range arts {
		tables, err := a.Render(s)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, tb := range tables {
			out.WriteString(tb.Markdown())
		}
	}
	return out.String()
}

// TestWarmTimingMatchesSerial does the same for timing artifacts on a
// restricted workload set: Figure 3, and the ablation tables, whose variant
// runs Warm executes alongside the suite's timing runs.
func TestWarmTimingMatchesSerial(t *testing.T) {
	opts := Options{Workloads: []string{"2mm", "bfs"}, Size: 32, Seed: 4, MaxWarpInsts: 20_000}
	ablation := artifactNamed(t, "ablation")
	s1 := NewSuite(opts)
	rows1, err := s1.Figure3()
	if err != nil {
		t.Fatalf("serial Figure3: %v", err)
	}
	tables1 := renderMarkdown(t, s1, ablation)
	s2 := NewSuite(opts)
	if err := s2.Warm(context.Background(), 4, []Artifact{artifactNamed(t, "fig3"), ablation}); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	rows2, err := s2.Figure3()
	if err != nil {
		t.Fatalf("warmed Figure3: %v", err)
	}
	if got, want := fmt.Sprintf("%+v", rows2), fmt.Sprintf("%+v", rows1); got != want {
		t.Fatalf("warmed Figure3 = %s, want %s", got, want)
	}
	if got := renderMarkdown(t, s2, ablation); got != tables1 {
		t.Fatalf("warmed ablation tables:\n%s\nwant:\n%s", got, tables1)
	}
}

// TestAblationSharesSuiteRuns pins the ablations to the suite's run cache.
// Each workload's base run is its Timing run, shared by all five ablations,
// so rendering executes one base and one variant run per ablation and
// workload; after Warm, rendering executes none. A run is counted at its
// first progress heartbeat, at cycle 0 with no warp instruction executed.
func TestAblationSharesSuiteRuns(t *testing.T) {
	var starts atomic.Int64
	opts := Options{Workloads: []string{"2mm", "bfs"}, Size: 32, Seed: 4, MaxWarpInsts: 20_000,
		Progress: func(cycles int64, warpInsts uint64) {
			if cycles == 0 && warpInsts == 0 {
				starts.Add(1)
			}
		}}
	ablation := artifactNamed(t, "ablation")
	want := int64(len(opts.Workloads) * (1 + len(Ablations)))

	renderMarkdown(t, NewSuite(opts), ablation)
	if got := starts.Swap(0); got != want {
		t.Errorf("rendering the ablations executed %d timing runs, want %d", got, want)
	}

	warmed := NewSuite(opts)
	if err := warmed.Warm(context.Background(), 2, []Artifact{ablation}); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if got := starts.Swap(0); got != want {
		t.Errorf("Warm executed %d timing runs, want %d", got, want)
	}
	renderMarkdown(t, warmed, ablation)
	if got := starts.Load(); got != 0 {
		t.Errorf("rendering after Warm executed %d timing runs, want 0", got)
	}
}

func TestWarmReportsWorkloadErrors(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"2mm", "no-such-workload"}, Size: 32})
	err := s.Warm(context.Background(), 2, []Artifact{artifactNamed(t, "table1")})
	if err == nil {
		t.Fatal("Warm succeeded despite unknown workload")
	}
	// The healthy workload must still have been executed and cached.
	if _, err := s.Functional("2mm"); err != nil {
		t.Fatalf("Functional(2mm) after partial Warm: %v", err)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFunctionalCtx(ctx, "2mm", Options{Size: 32}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFunctionalCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := RunTimingCtx(ctx, "2mm", Options{Size: 32}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTimingCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestOptionsMaxCycles(t *testing.T) {
	if got := (Options{}).gpuConfig().MaxCycles; got != DefaultMaxCycles {
		t.Errorf("default MaxCycles = %d, want %d", got, DefaultMaxCycles)
	}
	if got := (Options{MaxCycles: 1234}).gpuConfig().MaxCycles; got != 1234 {
		t.Errorf("explicit MaxCycles = %d, want 1234", got)
	}
	cfg := (Options{}).gpuConfig()
	cfg.MaxCycles = 77
	if got := (Options{GPU: &cfg}).gpuConfig().MaxCycles; got != 77 {
		t.Errorf("GPU-supplied MaxCycles = %d, want 77", got)
	}
	if got := (Options{GPU: &cfg, MaxCycles: 55}).gpuConfig().MaxCycles; got != 55 {
		t.Errorf("Options.MaxCycles should win over GPU config: got %d, want 55", got)
	}
}
