package experiments

import (
	"fmt"
	"reflect"
)

// DescribeRun summarizes the collector counters most likely to diverge
// between two engines, so a determinism failure points at the broken
// subsystem instead of a bare "not equal".
func DescribeRun(r *Run) string {
	c := r.Col
	return fmt.Sprintf(
		"cycles=%d gpuCycles=%d smCycles=%d unitBusy=%v warpInsts=%d l1Outcomes=%v l2Acc=%v l2Miss=%v turnaround=%+v",
		r.Cycles, c.GPUCycles, c.SMCycles, c.UnitBusy, c.WarpInsts,
		c.L1Outcomes, c.L2Acc, c.L2Miss, c.Turnaround)
}

// DiffRuns compares two runs of the same work executed by different engines
// (or by the same engine twice) and returns human-readable differences; an
// empty slice means the runs are byte-identical. This is the PR 3
// fast-forward-versus-serial contract, packaged so the differential-testing
// harness and the determinism tests share one comparator.
func DiffRuns(a, b *Run) []string {
	var diffs []string
	if a.Cycles != b.Cycles {
		diffs = append(diffs, fmt.Sprintf("cycle counts diverge: %d vs %d", a.Cycles, b.Cycles))
	}
	if !reflect.DeepEqual(a.Col, b.Col) {
		diffs = append(diffs, fmt.Sprintf("statistics collectors diverge:\n  a: %s\n  b: %s",
			DescribeRun(a), DescribeRun(b)))
	}
	return diffs
}
