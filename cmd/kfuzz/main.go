// Command kfuzz runs long offline differential-fuzzing campaigns over
// generated PTX kernels: every seed flows through the four difftest oracles
// (classification, functional, timing, checkpoint/resume), and any
// divergence is shrunk to a minimal reproducing kernel and written out as a
// replayable case.
//
// Typical uses:
//
//	kfuzz -seeds 100000                 # fixed-size campaign
//	kfuzz -duration 30m                 # time-boxed campaign
//	kfuzz -replay internal/difftest/testdata/regressions
//	kfuzz -emit-corpus 12 -out internal/difftest/testdata/corpus
//	kfuzz -seeds 50 -plant              # validate the pipeline end to end
//
// Exit status is 0 for a clean campaign and 1 when any divergence was found
// (or any replayed case failed).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"critload/internal/difftest"
	"critload/internal/gpu"
	"critload/internal/kgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds      = flag.Int64("seeds", 1000, "number of generator seeds to check")
		start      = flag.Int64("start", 1, "first seed of the campaign")
		duration   = flag.Duration("duration", 0, "stop after this wall-clock time (overrides -seeds)")
		out        = flag.String("out", "internal/difftest/testdata/regressions", "directory for shrunk findings / emitted corpus")
		emitCorpus = flag.Int("emit-corpus", 0, "emit this many generated cases to -out and exit")
		replay     = flag.String("replay", "", "replay a saved case (.ptx/.json) or a directory of cases and exit")
		plant      = flag.Bool("plant", false, "inject a known engine-behavior flip (SP latency) to validate the find→shrink pipeline")
		verbose    = flag.Bool("v", false, "log every seed")
	)
	flag.Parse()

	opts := difftest.Options{}
	if *plant {
		opts.GPUB = func() gpu.Config {
			cfg := gpu.DefaultConfig()
			cfg.SM.SPLatency++
			return cfg
		}
	}

	if *emitCorpus > 0 {
		return emit(*start, *emitCorpus, *out)
	}
	if *replay != "" {
		return replayPath(*replay, opts)
	}
	return campaign(*start, *seeds, *duration, *out, opts, *verbose)
}

// emit writes a deterministic corpus of generated cases.
func emit(start int64, n int, out string) int {
	for seed := start; seed < start+int64(n); seed++ {
		c, err := kgen.Build(kgen.Generate(seed, kgen.DefaultConfig()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "kfuzz: seed %d: %v\n", seed, err)
			return 1
		}
		if err := c.Save(out); err != nil {
			fmt.Fprintf(os.Stderr, "kfuzz: save: %v\n", err)
			return 1
		}
		fmt.Printf("emitted %s (%d insts, %d labeled loads)\n", c.Name, len(c.Kernel.Insts), len(c.Want))
	}
	return 0
}

// replayPath re-checks saved cases.
func replayPath(path string, opts difftest.Options) int {
	var files []string
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		matches, err := filepath.Glob(filepath.Join(path, "*.ptx"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "kfuzz: %v\n", err)
			return 1
		}
		files = matches
	} else {
		files = []string{path}
	}
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "kfuzz: no cases under %s\n", path)
		return 1
	}
	failed := 0
	for _, f := range files {
		c, err := kgen.LoadCase(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kfuzz: %s: %v\n", f, err)
			failed++
			continue
		}
		rep := difftest.Check(c, opts)
		if rep.Failed() {
			failed++
			fmt.Printf("FAIL %s\n", c.Name)
			for _, d := range rep.Divergences {
				fmt.Printf("  %s\n", d)
			}
		} else {
			fmt.Printf("ok   %s (det=%d nondet=%d)\n", c.Name, rep.Det, rep.NonDet)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// campaign sweeps seeds, shrinking and saving every divergence.
func campaign(start, seeds int64, duration time.Duration, out string, opts difftest.Options, verbose bool) int {
	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
		seeds = 1 << 62
	}
	findings := 0
	lastLog := time.Now()
	var checked int64
	for seed := start; seed < start+seeds; seed++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		checked++
		c, err := kgen.Build(kgen.Generate(seed, kgen.DefaultConfig()))
		if err != nil {
			fmt.Printf("FINDING seed %d: generator failed to build: %v\n", seed, err)
			findings++
			continue
		}
		rep := difftest.Check(c, opts)
		if verbose {
			fmt.Printf("seed %d: %d insts, det=%d nondet=%d, divergences=%d\n",
				seed, len(c.Kernel.Insts), rep.Det, rep.NonDet, len(rep.Divergences))
		}
		if rep.Failed() {
			findings++
			fmt.Printf("FINDING seed %d:\n", seed)
			for _, d := range rep.Divergences {
				fmt.Printf("  %s\n", d)
			}
			saveFinding(seed, c, opts, out)
		}
		if time.Since(lastLog) > 10*time.Second {
			lastLog = time.Now()
			fmt.Printf("... %d seeds checked, %d findings\n", checked, findings)
		}
	}
	fmt.Printf("campaign done: %d seeds checked, %d findings\n", checked, findings)
	if findings > 0 {
		return 1
	}
	return 0
}

// saveFinding shrinks the failing seed to a minimal program and writes the
// case plus a human-readable report next to it.
func saveFinding(seed int64, c *kgen.Case, opts difftest.Options, out string) {
	fails := func(q *kgen.Prog) bool {
		qc, err := kgen.Build(q)
		if err != nil {
			return false
		}
		return difftest.Check(qc, opts).Failed()
	}
	minProg := difftest.Shrink(c.Prog, fails, 0)
	minCase, err := kgen.Build(minProg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kfuzz: shrunk program does not build: %v\n", err)
		minCase = c
	}
	if err := minCase.Save(out); err != nil {
		fmt.Fprintf(os.Stderr, "kfuzz: save finding: %v\n", err)
		return
	}
	rep := difftest.Check(minCase, opts)
	report := fmt.Sprintf("seed %d shrunk from %d to %d ops\n", seed, len(c.Prog.Ops), len(minProg.Ops))
	for _, d := range rep.Divergences {
		report += "  " + d.String() + "\n"
	}
	path := filepath.Join(out, minCase.Name+".report.txt")
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kfuzz: write report: %v\n", err)
	}
	fmt.Printf("  shrunk to %d ops, saved as %s\n", len(minProg.Ops), minCase.Name)
}
