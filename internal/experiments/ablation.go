package experiments

import (
	"fmt"

	"critload/internal/gpu"
	"critload/internal/sm"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// AblationRow compares one workload under two configurations.
type AblationRow struct {
	Name     string
	Category workloads.Category
	// Baseline / variant cycle counts and L1 hit ratios.
	BaseCycles, VariantCycles         int64
	BaseL1Hit, VariantL1Hit           float64
	BaseTurnaround, VariantTurnaround float64
}

func l1HitRatio(col *stats.Collector) float64 {
	acc := col.L1Acc[stats.Det] + col.L1Acc[stats.NonDet]
	miss := col.L1Miss[stats.Det] + col.L1Miss[stats.NonDet]
	if acc == 0 {
		return 0
	}
	return 1 - float64(miss)/float64(acc)
}

func meanTurnaround(col *stats.Collector) float64 {
	t := col.Turnaround[stats.Det]
	n := col.Turnaround[stats.NonDet]
	ops := t.Ops + n.Ops
	if ops == 0 {
		return 0
	}
	return float64(t.Total+n.Total) / float64(ops)
}

// Ablation is one base-versus-variant hardware comparison: the baseline is
// the sweep's own configuration, the variant is that configuration after
// Apply.
type Ablation struct {
	Name  string // selector for RunAblation
	Title string // table heading
	// Base and Variant label the two configurations in column headings.
	Base, Variant string
	// Turnaround selects mean load turnaround as the reported second
	// metric; otherwise it is the L1 hit ratio.
	Turnaround bool
	Apply      func(*gpu.Config)
}

// Ablations lists the Section X mechanisms, in the order `critload
// experiments -artifact ablation` prints them. Under default Options the
// baseline is Table II: round-robin CTA placement, loose-round-robin warps,
// every load through the L1, no prefetch, unified L2.
var Ablations = []Ablation{
	// Section X.B: neighbouring CTAs on the same SM, to convert inter-CTA
	// sharing into L1 hits.
	{Name: "cta", Title: "Section X.B ablation — round-robin vs clustered CTA scheduling",
		Base: "RR", Variant: "clustered",
		Apply: func(c *gpu.Config) { c.CTAPolicy = gpu.CTAClustered }},
	// Greedy-then-oldest, the kind of instruction-aware specialization
	// Section X.A motivates.
	{Name: "warp", Title: "Section X.A ablation — LRR vs GTO warp scheduling",
		Base: "LRR", Variant: "GTO", Turnaround: true,
		Apply: func(c *gpu.Config) { c.SM.Policy = sm.GTO }},
	// Section X.A instruction-specific handling: non-deterministic loads go
	// around the L1, freeing its tags and MSHRs for deterministic loads.
	{Name: "bypass", Title: "Section X.A ablation — non-deterministic loads bypass the L1",
		Base: "baseline", Variant: "bypass",
		Apply: func(c *gpu.Config) { c.SM.NonDetBypassL1 = true }},
	// The application-oblivious mechanism the paper argues should instead be
	// instruction-aware: it helps unit-stride deterministic streams and
	// pollutes the cache for non-deterministic ones.
	{Name: "prefetch", Title: "Oblivious baseline — next-line L1 prefetch",
		Base: "baseline", Variant: "prefetch",
		Apply: func(c *gpu.Config) { c.SM.PrefetchNextLine = true }},
	// Section X.C: L2 slice groups private to SM clusters.
	{Name: "l2", Title: "Section X.C ablation — unified vs semi-global L2 (2 clusters)",
		Base: "unified", Variant: "semi-global", Turnaround: true,
		Apply: func(c *gpu.Config) { c.L2Clusters = 2 }},
}

// RunAblation runs the named entry of Ablations over the selected workloads,
// each once under the baseline and once under the variant.
func RunAblation(name string, opts Options) ([]AblationRow, error) {
	for _, a := range Ablations {
		if a.Name != name {
			continue
		}
		base := opts.gpuConfig()
		variant := base
		a.Apply(&variant)
		return compare(opts, base, variant)
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q", name)
}

func compare(opts Options, base, variant gpu.Config) ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range opts.names() {
		bOpts := opts
		bOpts.GPU = &base
		bRun, err := RunTiming(name, bOpts)
		if err != nil {
			return rows, err
		}
		vOpts := opts
		vOpts.GPU = &variant
		vRun, err := RunTiming(name, vOpts)
		if err != nil {
			return rows, err
		}
		rows = append(rows, AblationRow{
			Name:              name,
			Category:          bRun.Workload.Category,
			BaseCycles:        bRun.Cycles,
			VariantCycles:     vRun.Cycles,
			BaseL1Hit:         l1HitRatio(bRun.Col),
			VariantL1Hit:      l1HitRatio(vRun.Col),
			BaseTurnaround:    meanTurnaround(bRun.Col),
			VariantTurnaround: meanTurnaround(vRun.Col),
		})
	}
	return rows, nil
}
