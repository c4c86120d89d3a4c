package experiments

import (
	"fmt"

	"critload/internal/checkpoint"
)

// WarmStartPoint is one sweep point of a warm-start measurement: a timing run
// of the same (workload, size, seed) at one warp-instruction budget, sharing
// the sweep's checkpoint store.
type WarmStartPoint struct {
	// MaxWarpInsts is the point's measurement-window budget (the swept late
	// parameter; 0 = complete run).
	MaxWarpInsts uint64 `json:"max_warp_insts"`
	// Cycles and WarpInsts describe the simulated work at window close —
	// byte-identical to a cold run of the same budget by the difftest
	// checkpoint-oracle contract, so these numbers are deterministic.
	Cycles    int64  `json:"cycles"`
	WarpInsts uint64 `json:"warp_insts"`
	// WarmStartIndex is the kernel-launch boundary the run resumed from
	// (0 = cold), WarmStartCycles the cycles inherited instead of
	// re-simulated, and SimulatedCycles the remainder actually stepped.
	WarmStartIndex  int   `json:"warm_start_index"`
	WarmStartCycles int64 `json:"warm_start_cycles"`
	SimulatedCycles int64 `json:"simulated_cycles"`
}

// WarmStartReport records one incremental sweep: ≥2 budgets over one
// workload, each run warm-starting from the checkpoints its predecessors
// left behind. Every field is deterministic (no wall-clock measurements), so
// a committed report can be regenerated and compared exactly.
type WarmStartReport struct {
	Schema   string           `json:"schema"`
	Workload string           `json:"workload"`
	Size     int              `json:"size"`
	Seed     int64            `json:"seed"`
	Points   []WarmStartPoint `json:"points"`
	// TotalCycles is the work a cold sweep simulates (Σ Cycles); CyclesSkipped
	// is the portion the warm starts inherited (Σ WarmStartCycles); the
	// fraction is their ratio.
	TotalCycles     int64   `json:"total_cycles"`
	CyclesSkipped   int64   `json:"cycles_skipped"`
	SkippedFraction float64 `json:"skipped_fraction"`
}

// WarmStartSchema versions the report layout.
const WarmStartSchema = "critload/warmstart/v1"

// MeasureWarmStart runs the sweep: ascending warp-instruction budgets over
// one workload, all sharing one checkpoint store, exactly how a figure
// reproduction revisits a run while widening its measurement window. The
// first point is necessarily cold; each later point resumes from the deepest
// boundary inside its window, so the sweep's redundant prefix work collapses
// to checkpoint loads.
func MeasureWarmStart(name string, size int, seed int64, budgets []uint64, store *checkpoint.Store) (*WarmStartReport, error) {
	if len(budgets) < 2 {
		return nil, fmt.Errorf("experiments: a warm-start sweep needs at least 2 points, got %d", len(budgets))
	}
	rep := &WarmStartReport{Schema: WarmStartSchema, Workload: name, Size: size, Seed: seed}
	for _, b := range budgets {
		r, err := RunTiming(name, Options{Size: size, Seed: seed, MaxWarpInsts: b, Checkpoints: store})
		if err != nil {
			return nil, fmt.Errorf("experiments: warm-start sweep point %d: %w", b, err)
		}
		p := WarmStartPoint{
			MaxWarpInsts:    b,
			Cycles:          r.Cycles,
			WarpInsts:       r.Col.WarpInsts,
			WarmStartIndex:  r.WarmStartIndex,
			WarmStartCycles: r.WarmStartCycles,
			SimulatedCycles: r.Cycles - r.WarmStartCycles,
		}
		rep.Points = append(rep.Points, p)
		rep.TotalCycles += p.Cycles
		rep.CyclesSkipped += p.WarmStartCycles
	}
	if rep.TotalCycles > 0 {
		rep.SkippedFraction = float64(rep.CyclesSkipped) / float64(rep.TotalCycles)
	}
	return rep, nil
}
