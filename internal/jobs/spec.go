package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"critload/internal/workloads"
)

// Mode selects which engine executes a job.
type Mode string

// Job modes: a functional run on the emulator (whole-application profiler
// statistics) or a timing run on the cycle-level simulator.
const (
	ModeFunctional Mode = "functional"
	ModeTiming     Mode = "timing"
)

// Spec describes one simulation request. Identical specs produce identical
// results — the simulator is deterministic for a fixed (workload, size,
// seed, instruction budget, cycle bound) tuple — which is what makes
// results content-addressable.
type Spec struct {
	// Workload is the Table I benchmark name.
	Workload string `json:"workload"`
	// Mode selects the functional emulator or the timing simulator.
	Mode Mode `json:"mode"`
	// Size overrides the workload's default problem size (0 = default).
	Size int `json:"size,omitempty"`
	// Seed drives input generation.
	Seed int64 `json:"seed,omitempty"`
	// MaxWarpInsts bounds a timing run's measurement window (0 = complete).
	MaxWarpInsts uint64 `json:"max_warp_insts,omitempty"`
	// MaxCycles bounds a timing run's cycle count (0 = engine default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Timeout bounds the job's wall-clock execution (0 = none). It is
	// deliberately excluded from the cache key: it bounds the run but
	// never alters the result a successful run produces.
	Timeout time.Duration `json:"timeout,omitempty"`
	// ReuseCheckpoints lets a timing run warm-start from (and contribute to)
	// the daemon's checkpoint store when one is configured. Like Timeout it
	// is excluded from the cache key: warm starts are byte-identical to cold
	// runs — the difftest checkpoint oracle enforces it — so the flag changes
	// how fast a result arrives, never the result.
	ReuseCheckpoints bool `json:"reuse_checkpoints,omitempty"`
}

// Validate checks the spec against the registered workloads, their size
// knobs and the modes. Size stays as given, so 0 keeps its own cache key.
func (s Spec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("jobs: spec has no workload")
	}
	if s.Mode != ModeFunctional && s.Mode != ModeTiming {
		return fmt.Errorf("jobs: unknown mode %q", s.Mode)
	}
	w, ok := workloads.Get(s.Workload)
	if !ok {
		return fmt.Errorf("jobs: unknown workload %q", s.Workload)
	}
	if _, err := w.CheckSize(s.Size); err != nil {
		return err
	}
	if s.Timeout < 0 {
		return fmt.Errorf("jobs: negative timeout %s", s.Timeout)
	}
	return nil
}

// Key is the content address of a spec's result: a SHA-256 digest over every
// result-affecting field.
type Key [sha256.Size]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyMaterial is the canonical serialization hashed into a Key. It is a
// separate struct so that adding result-neutral fields to Spec (Timeout,
// priorities, ...) cannot silently change existing keys.
type keyMaterial struct {
	Workload     string `json:"workload"`
	Mode         Mode   `json:"mode"`
	Size         int    `json:"size"`
	Seed         int64  `json:"seed"`
	MaxWarpInsts uint64 `json:"max_warp_insts"`
	MaxCycles    int64  `json:"max_cycles"`
}

// Key derives the spec's content address. Functional runs ignore the timing
// machinery, so their keys deliberately exclude the instruction budget and
// cycle bound: a functional result is reusable across those knobs.
func (s Spec) Key() Key {
	m := keyMaterial{Workload: s.Workload, Mode: s.Mode, Size: s.Size, Seed: s.Seed}
	if s.Mode == ModeTiming {
		m.MaxWarpInsts = s.MaxWarpInsts
		m.MaxCycles = s.MaxCycles
	}
	b, err := json.Marshal(m)
	if err != nil {
		// keyMaterial is plain data; marshalling cannot fail.
		panic(fmt.Sprintf("jobs: key material: %v", err))
	}
	return sha256.Sum256(b)
}
