package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// noisySwing is how far the calibration loop may move across one workload
// before that workload's numbers are flagged as noisy.
const noisySwing = 0.10

func loadSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means better.
func worsening(m declMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// noisy reports whether the calibration loop swung by more than noisySwing
// across the workload in this set.
func (s resultSet) noisy(workload string) bool {
	c, ok := s.CalibMS[workload]
	return ok && c[0] > 0 && math.Abs(c[1]-c[0])/c[0] > noisySwing
}

// compareSets prints one row per (workload, end-to-end metric) with both
// values, the change and the bound, and returns an error on any breach of a
// bound, any rise in the failed share of ops, or a workload missing from
// either set.
func compareSets(w io.Writer, decl *declaration, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range decl.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-15s missing from a result set\n", wl.Name)
			breaches++
			continue
		}
		flag := ""
		if a.noisy(wl.Name) || b.noisy(wl.Name) {
			flag = "  noisy: env.calib_ms swung >10%"
		}
		for _, m := range decl.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := worsening(m, va, vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s%s\n",
				wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict, flag)
		}
		ea := ratio(float64(ra.Failed), float64(ra.Attempted))
		eb := ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := ""
		if eb > ea {
			verdict = "  BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %17s%s\n", wl.Name, "error_rate", ea, eb, "any rise fails", verdict)
	}
	if breaches > 0 {
		return fmt.Errorf("%d breach(es) of the bounds in %s", breaches, declPath)
	}
	return nil
}
