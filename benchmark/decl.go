package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// declaration is BENCHMARK.json: the one place that names the workloads and
// metrics, their units, directions and bounds. The harness computes values
// by name and prints what is declared; a name it computes but the file does
// not declare is an error, so the two cannot drift apart.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []declWorkload `json:"workloads"`
	EndToEnd   []declMetric   `json:"end_to_end"`
	PerLayer   []declMetric   `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline by which an end-to-end metric may
	// get worse; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

func loadDecl(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range d.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("%s declares workload %q, which the harness does not have", path, w.Name)
		}
	}
	if len(d.Workloads) != len(workloadTable) {
		return nil, fmt.Errorf("%s declares %d workloads, the harness has %d", path, len(d.Workloads), len(workloadTable))
	}
	return &d, nil
}

// resultOf picks the declared metrics of the run's mode out of what it
// measured. Every end-to-end metric must have been measured, and none may be
// 0; a per-layer metric the workload does not exercise is printed as 0.
func (d *declaration) resultOf(o *outcome, traced bool) (result, error) {
	res := result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: map[string]metricValue{}}
	declared := map[string]bool{}
	for _, m := range append(append([]declMetric(nil), d.EndToEnd...), d.PerLayer...) {
		declared[m.Name] = true
	}
	var undeclared []string
	for name := range o.Values {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return res, fmt.Errorf("measured but not declared in %s: %v", declPath, undeclared)
	}
	if traced {
		for _, m := range d.PerLayer {
			res.Metrics[m.Name] = metricValue{Value: o.Values[m.Name], Unit: m.Unit}
		}
		return res, nil
	}
	for _, m := range d.EndToEnd {
		v, ok := o.Values[m.Name]
		if !ok || v == 0 {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}
