package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"critload/internal/difftest"
	"critload/internal/gpu"
	"critload/internal/kgen"
)

// fuzz runs long offline differential-fuzzing campaigns over generated PTX
// kernels: every seed flows through the difftest oracles (classification,
// functional, timing, checkpoint/resume), and any divergence is shrunk to a
// minimal reproducing kernel and written out as a replayable case. It fails
// (exit status 1) when any divergence was found or any replayed case failed.
func fuzz(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "fuzz", "[flags]",
		"fuzz -seeds 100000                 # fixed-size campaign",
		"fuzz -duration 30m                 # time-boxed campaign",
		"fuzz -replay internal/difftest/testdata/regressions",
		"fuzz -emit-corpus 12 -out internal/difftest/testdata/corpus",
		"fuzz -seeds 50 -plant              # validate the pipeline end to end")
	seeds := fs.Int64("seeds", 1000, "number of generator seeds to check")
	start := fs.Int64("start", 1, "first seed of the campaign")
	duration := fs.Duration("duration", 0, "stop after this wall-clock time (overrides -seeds)")
	out := fs.String("out", "internal/difftest/testdata/regressions", "directory for shrunk findings / emitted corpus")
	emitCorpus := fs.Int("emit-corpus", 0, "emit this many generated cases to -out and exit")
	replay := fs.String("replay", "", "replay a saved case (.ptx/.json) or a directory of cases and exit")
	plant := fs.Bool("plant", false, "inject a known engine-behavior flip (SP latency) to validate the find→shrink pipeline")
	verbose := fs.Bool("v", false, "log every seed")
	if err := parse(fs, args); err != nil {
		return err
	}

	opts := difftest.Options{}
	if *plant {
		opts.GPUB = func() gpu.Config {
			cfg := gpu.DefaultConfig()
			cfg.SM.SPLatency++
			return cfg
		}
	}
	f := fuzzer{stdout: stdout, stderr: stderr, opts: opts, out: *out}
	switch {
	case *emitCorpus > 0:
		return f.emit(*start, *emitCorpus)
	case *replay != "":
		return f.replay(*replay)
	}
	return f.campaign(*start, *seeds, *duration, *verbose)
}

type fuzzer struct {
	stdout, stderr io.Writer
	opts           difftest.Options
	out            string // directory for findings / the emitted corpus
}

// emit writes a deterministic corpus of generated cases.
func (f *fuzzer) emit(start int64, n int) error {
	for seed := start; seed < start+int64(n); seed++ {
		c, err := kgen.Build(kgen.Generate(seed, kgen.DefaultConfig()))
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := c.Save(f.out); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(f.stdout, "emitted %s (%d insts, %d labeled loads)\n", c.Name, len(c.Kernel.Insts), len(c.Want))
	}
	return nil
}

// replay re-checks saved cases.
func (f *fuzzer) replay(path string) error {
	files := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.ptx")); err != nil {
			return err
		}
	}
	if len(files) == 0 {
		return fmt.Errorf("no cases under %s", path)
	}
	failed := 0
	for _, file := range files {
		c, err := kgen.LoadCase(file)
		if err != nil {
			fmt.Fprintf(f.stderr, "critload fuzz: %s: %v\n", file, err)
			failed++
			continue
		}
		rep := difftest.Check(c, f.opts)
		if rep.Failed() {
			failed++
			fmt.Fprintf(f.stdout, "FAIL %s\n", c.Name)
			for _, d := range rep.Divergences {
				fmt.Fprintf(f.stdout, "  %s\n", d)
			}
		} else {
			fmt.Fprintf(f.stdout, "ok   %s (det=%d nondet=%d)\n", c.Name, rep.Det, rep.NonDet)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cases failed", failed, len(files))
	}
	return nil
}

// campaign sweeps seeds, shrinking and saving every divergence.
func (f *fuzzer) campaign(start, seeds int64, duration time.Duration, verbose bool) error {
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
			fmt.Fprintf(f.stdout, "FINDING seed %d: generator failed to build: %v\n", seed, err)
			findings++
			continue
		}
		rep := difftest.Check(c, f.opts)
		if verbose {
			fmt.Fprintf(f.stdout, "seed %d: %d insts, det=%d nondet=%d, divergences=%d\n",
				seed, len(c.Kernel.Insts), rep.Det, rep.NonDet, len(rep.Divergences))
		}
		if rep.Failed() {
			findings++
			fmt.Fprintf(f.stdout, "FINDING seed %d:\n", seed)
			for _, d := range rep.Divergences {
				fmt.Fprintf(f.stdout, "  %s\n", d)
			}
			f.saveFinding(seed, c)
		}
		if time.Since(lastLog) > 10*time.Second {
			lastLog = time.Now()
			fmt.Fprintf(f.stdout, "... %d seeds checked, %d findings\n", checked, findings)
		}
	}
	fmt.Fprintf(f.stdout, "campaign done: %d seeds checked, %d findings\n", checked, findings)
	if findings > 0 {
		return fmt.Errorf("%d findings", findings)
	}
	return nil
}

// saveFinding shrinks the failing seed to a minimal program and writes the
// case plus a human-readable report next to it.
func (f *fuzzer) saveFinding(seed int64, c *kgen.Case) {
	fails := func(q *kgen.Prog) bool {
		qc, err := kgen.Build(q)
		if err != nil {
			return false
		}
		return difftest.Check(qc, f.opts).Failed()
	}
	minProg := difftest.Shrink(c.Prog, fails, 0)
	minCase, err := kgen.Build(minProg)
	if err != nil {
		fmt.Fprintf(f.stderr, "critload fuzz: shrunk program does not build: %v\n", err)
		minCase = c
	}
	if err := minCase.Save(f.out); err != nil {
		fmt.Fprintf(f.stderr, "critload fuzz: save finding: %v\n", err)
		return
	}
	rep := difftest.Check(minCase, f.opts)
	report := fmt.Sprintf("seed %d shrunk from %d to %d ops\n", seed, len(c.Prog.Ops), len(minProg.Ops))
	for _, d := range rep.Divergences {
		report += "  " + d.String() + "\n"
	}
	path := filepath.Join(f.out, minCase.Name+".report.txt")
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		fmt.Fprintf(f.stderr, "critload fuzz: write report: %v\n", err)
	}
	fmt.Fprintf(f.stdout, "  shrunk to %d ops, saved as %s\n", len(minProg.Ops), minCase.Name)
}
