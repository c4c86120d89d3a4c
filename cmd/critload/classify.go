package main

import (
	"fmt"
	"io"
	"os"

	"critload/internal/dataflow"
	_ "critload/internal/families" // register family: workload names
	"critload/internal/ptx"
	"critload/internal/report"
	"critload/internal/workloads"
)

// classify labels the global loads of PTX-subset kernels as deterministic or
// non-deterministic with the paper's backward dataflow analysis. It takes a
// source file or the name of a built-in (or family:) workload.
func classify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "classify", "[flags]",
		"classify -file kernel.ptx",
		"classify -workload bfs -v",
		"classify -workload 'family:mixed-dn?dn=25&loads=8'",
		"classify -list")
	file := fs.String("file", "", "PTX-subset source file to classify")
	workload := fs.String("workload", "", "built-in workload whose kernels to classify")
	list := fs.Bool("list", false, "list built-in workloads")
	verbose := fs.Bool("v", false, "print address roots for every load")
	if err := parse(fs, args); err != nil {
		return err
	}

	var prog *ptx.Program
	switch {
	case *list:
		t := report.New("Built-in workloads", "name", "category", "description")
		for _, w := range workloads.All() {
			t.Add(w.Name, w.Category, w.Description)
		}
		fmt.Fprint(stdout, t)
		return nil
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		if prog, err = ptx.Parse(string(src)); err != nil {
			return err
		}
	case *workload != "":
		w, ok := workloads.Get(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", *workload)
		}
		var err error
		if prog, err = w.Program(); err != nil {
			return err
		}
	default:
		fs.Usage()
		return fmt.Errorf("one of -file, -workload or -list is required")
	}

	for _, k := range prog.Kernels {
		res := dataflow.Classify(k)
		det, nondet := res.Counts()
		fmt.Fprintf(stdout, "kernel %s: %d global loads (%d deterministic, %d non-deterministic)\n",
			k.Name, len(res.Loads), det, nondet)
		for _, l := range res.Loads {
			fmt.Fprintf(stdout, "  PC 0x%03x  %-17s  %s\n", l.PC, l.Class, k.Insts[l.InstIndex])
			if !*verbose {
				continue
			}
			for _, r := range l.Roots {
				if r.Name != "" {
					fmt.Fprintf(stdout, "      root: %s (%s)\n", r.Kind, r.Name)
				} else {
					fmt.Fprintf(stdout, "      root: %s\n", r.Kind)
				}
			}
		}
	}
	return nil
}
