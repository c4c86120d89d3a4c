package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the one seed golden.json holds exact results for. Runs with
// another seed fall back to pass-to-pass equality plus Instance.Verify.
const goldenSeed = 1

// goldenPath is where -update-golden writes, relative to the repo root.
const goldenPath = "benchmark/golden.json"

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is the exact result of one spec at goldenSeed.
type goldenEntry struct {
	Cycles    int64  `json:"cycles"`
	WarpInsts uint64 `json:"warp_insts"`
	Digest    string `json:"digest"` // SHA-256 of Collector.Snapshot
}

// goldenFile maps "timing:grm/192" or "functional:lu/default" to its entry.
type goldenFile struct {
	Seed    int64                  `json:"seed"`
	Entries map[string]goldenEntry `json:"entries"`
}

func goldenKey(functional bool, spec simSpec) string {
	if functional {
		return "functional:" + spec.String()
	}
	return "timing:" + spec.String()
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func entryOf(r *simRun) goldenEntry {
	return goldenEntry{Cycles: r.Cycles, WarpInsts: r.WarpInsts, Digest: r.digest()}
}

// simChecker judges every op of an in-process workload: against golden.json
// at the golden seed, against the first pass otherwise, and against the
// workload's CPU reference always.
type simChecker struct {
	golden     map[string]goldenEntry // nil when the seed has no golden results
	functional bool
	first      map[string]goldenEntry
}

func newSimChecker(seed int64, functional bool) (*simChecker, error) {
	c := &simChecker{functional: functional, first: map[string]goldenEntry{}}
	if seed == goldenSeed {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		c.golden = g.Entries
	}
	return c, nil
}

// check returns what is wrong with one pass's runs; empty means the op is
// correct. entries carries the digests, computed by the caller so that it can
// time them.
func (c *simChecker) check(runs []*simRun, entries []goldenEntry) []string {
	var bad []string
	for i, r := range runs {
		key, got := goldenKey(c.functional, r.Spec), entries[i]
		if want, ok := c.golden[key]; ok && got != want {
			bad = append(bad, fmt.Sprintf("%s: got %+v, golden %+v", key, got, want))
		}
		if first, ok := c.first[key]; !ok {
			c.first[key] = got
		} else if got != first {
			bad = append(bad, fmt.Sprintf("%s: got %+v, first pass %+v", key, got, first))
		}
		if err := r.verify(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: verify: %v", key, err))
		}
	}
	return bad
}

// updateGolden regenerates golden.json. It refuses to write unless, for every
// timing spec, the fast-forward run and a naive-engine run agree exactly,
// and, for every functional spec, two runs agree; every run must also pass
// its CPU reference.
func updateGolden(ctx context.Context) error {
	g := goldenFile{Seed: goldenSeed, Entries: map[string]goldenEntry{}}
	for _, w := range workloadTable {
		if !w.inProcess() {
			continue
		}
		functional := w.Kind == kindFunctional
		for _, spec := range append(append([]simSpec(nil), w.Specs...), w.SmokeSpecs...) {
			key := goldenKey(functional, spec)
			if _, done := g.Entries[key]; done {
				continue
			}
			fmt.Fprintf(os.Stderr, "golden: %s\n", key)
			a, b, err := goldenPair(ctx, functional, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if d := diffSimRuns(a, b); len(d) > 0 {
				return fmt.Errorf("%s: reference run disagrees, golden.json not written: %v", key, d)
			}
			if err := a.verify(); err != nil {
				return fmt.Errorf("%s: verify: %w", key, err)
			}
			g.Entries[key] = entryOf(a)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// goldenPair produces the run to record and the independent run it must
// equal: fast-forward against naive for timing, a second run for functional.
func goldenPair(ctx context.Context, functional bool, spec simSpec) (a, b *simRun, err error) {
	if functional {
		if a, err = runFunctional(ctx, spec, goldenSeed); err != nil {
			return nil, nil, err
		}
		b, err = runFunctional(ctx, spec, goldenSeed)
		return a, b, err
	}
	if a, err = runTiming(ctx, spec, goldenSeed); err != nil {
		return nil, nil, err
	}
	b, err = runTimingNaive(ctx, spec, goldenSeed)
	return a, b, err
}
