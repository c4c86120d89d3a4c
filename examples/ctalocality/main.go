// Ctalocality reproduces the paper's "hidden data locality" story (Sections
// IX and X.B): it measures inter-CTA sharing of 128-byte blocks and CTA
// distance histograms for a dense and a graph workload, then runs the
// round-robin vs clustered CTA-scheduler ablation the paper proposes.
package main

import (
	"fmt"
	"log"

	"critload"
	"critload/internal/experiments"
)

func main() {
	for _, name := range []string{"2mm", "bfs"} {
		analyze(name)
		fmt.Println()
	}
	ablation()
}

func analyze(name string) {
	fmt.Printf("=== inter-CTA locality: %s ===\n", name)
	size := 0
	if name == "2mm" {
		size = 96 // keep the dense run short; locality shape is size-invariant
	} else {
		size = 8192
	}
	run, err := critload.RunWorkload(name, critload.RunOptions{
		Mode: critload.Functional, Size: size, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	b := run.Col.Blocks()
	fmt.Printf("distinct 128B blocks:        %d\n", b.DistinctBlocks)
	fmt.Printf("cold miss ratio:             %.1f%%   (Fig 10: low — data is reused)\n", 100*b.ColdMissRatio)
	fmt.Printf("mean accesses per block:     %.1f\n", b.MeanAccessPerBlock)
	fmt.Printf("blocks shared by >=2 CTAs:   %.1f%% of blocks, %.1f%% of accesses (Fig 11)\n",
		100*b.SharedBlockRatio, 100*b.SharedAccessRatio)
	fmt.Printf("mean CTAs per shared block:  %.1f\n", b.MeanCTAsPerShared)

	fmt.Println("CTA distance histogram (Fig 12, top 5):")
	bins := run.Col.CTADistanceHistogram()
	// Pick the five most frequent distances.
	for i := 0; i < 5 && i < len(bins); i++ {
		best := i
		for j := i + 1; j < len(bins); j++ {
			if bins[j].Count > bins[best].Count {
				best = j
			}
		}
		bins[i], bins[best] = bins[best], bins[i]
		fmt.Printf("  distance %4d: %.1f%% of cross-CTA accesses\n",
			bins[i].Distance, 100*bins[i].Fraction)
	}
}

func ablation() {
	fmt.Println("=== Section X.B ablation: CTA scheduling ===")
	rows, err := experiments.RunAblation("cta", experiments.Options{
		Workloads: []string{"2mm", "bfs"},
		Size:      0, Seed: 11, MaxWarpInsts: 300_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-5s round-robin: %8d cycles, L1 hit %.1f%%   clustered: %8d cycles, L1 hit %.1f%%\n",
			r.Name, r.BaseCycles, 100*r.BaseL1Hit, r.VariantCycles, 100*r.VariantL1Hit)
	}
	fmt.Println("(clustered scheduling places neighbouring CTAs on the same SM so the")
	fmt.Println(" inter-CTA sharing at distance 1 turns into private-L1 hits)")
}
