package experiments

import (
	"context"

	"critload/internal/gpu"
	"critload/internal/sm"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// Summary is what an ablation table prints of one timing run. A variant run
// is reduced to it on completion, so the suite keeps neither its instance
// nor its collector.
type Summary struct {
	Cycles int64
	// L1Hit is the L1 hit ratio over both load categories.
	L1Hit float64
	// Turnaround is the mean load turnaround over both categories.
	Turnaround float64
}

func summarize(r *Run) Summary {
	col := r.Col
	sum := Summary{Cycles: r.Cycles}
	if acc := col.L1Acc[stats.Det] + col.L1Acc[stats.NonDet]; acc > 0 {
		miss := col.L1Miss[stats.Det] + col.L1Miss[stats.NonDet]
		sum.L1Hit = 1 - float64(miss)/float64(acc)
	}
	t, n := col.Turnaround[stats.Det], col.Turnaround[stats.NonDet]
	if ops := t.Ops + n.Ops; ops > 0 {
		sum.Turnaround = float64(t.Total+n.Total) / float64(ops)
	}
	return sum
}

// AblationRow compares one workload under the base and the variant
// configuration.
type AblationRow struct {
	Name          string
	Category      workloads.Category
	Base, Variant Summary
}

// Ablation is one base-versus-variant hardware comparison: the baseline is
// the sweep's own configuration, the variant is that configuration after
// Apply.
type Ablation struct {
	Name  string // short name, e.g. "bypass"
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

// Ablation compares every selected workload's timing run with its run under
// a.Apply. The base is the suite's own timing run; a variant equal to the
// base configuration resolves to that same run.
func (s *Suite) Ablation(a Ablation) ([]AblationRow, error) {
	ctx := context.Background()
	var rows []AblationRow
	for _, name := range s.Opts.names() {
		base := s.run(ctx, s.timingKey(name, nil))
		if base.err != nil {
			return rows, base.err
		}
		variant := s.run(ctx, s.timingKey(name, a.Apply))
		if variant.err != nil {
			return rows, variant.err
		}
		rows = append(rows, AblationRow{Name: name, Category: base.r.Workload.Category,
			Base: base.sum, Variant: variant.sum})
	}
	return rows, nil
}
