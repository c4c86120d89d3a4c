package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"critload/internal/report"
	"critload/internal/trace"
)

// tracestat summarizes a per-request CSV trace written by `sim -trace`:
// per-PC request counts and latencies (the offline view behind Figures 6 and
// 7), per-category aggregates, and the service-level mix.
func tracestat(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "tracestat", "<trace.csv>",
		"sim -workload bfs -trace bfs.csv",
		"tracestat bfs.csv")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("trace is empty")
	}

	// Busiest loads first; equal counts stay in SummarizeByPC's (kernel, PC)
	// order, so the table is the same on every run.
	perPC := trace.SummarizeByPC(records)
	sort.SliceStable(perPC, func(i, j int) bool { return perPC[i].Requests > perPC[j].Requests })
	t := report.New("per-PC request profile (by request count)",
		"kernel", "PC", "class", "requests", "mean latency", "max latency")
	for _, s := range perPC {
		cls := "D"
		if s.NonDet {
			cls = "N"
		}
		t.Add(s.Kernel, fmt.Sprintf("0x%03x", s.PC), cls, s.Requests, s.MeanLatency, s.MaxLatency)
	}
	fmt.Fprint(stdout, t)

	var n [2]int
	var lat [2]int64
	mix := map[string]int{}
	for _, r := range records {
		i := 0
		if r.NonDet {
			i = 1
		}
		n[i]++
		lat[i] += r.Latency()
		mix[r.Serviced.String()]++
	}
	t = report.New("per-category aggregate", "class", "requests", "mean latency")
	for i, cls := range []string{"deterministic", "non-deterministic"} {
		if n[i] > 0 {
			t.Add(cls, n[i], float64(lat[i])/float64(n[i]))
		}
	}
	fmt.Fprint(stdout, t)

	levels := make([]string, 0, len(mix))
	for l := range mix {
		levels = append(levels, l)
	}
	sort.Strings(levels)
	t = report.New("service level mix", "level", "requests", "fraction")
	for _, l := range levels {
		t.Add(l, mix[l], report.Pct(float64(mix[l])/float64(len(records))))
	}
	fmt.Fprint(stdout, t)
	return nil
}
