// Command critload is the repository's offline command line: one binary
// whose subcommands classify loads, run a workload on the simulator,
// regenerate the paper's tables and figures, run differential-fuzzing
// campaigns and summarize request traces. The HTTP daemon is cmd/critloadd.
//
//	critload help            # the subcommands
//	critload help sim        # one subcommand's flags, generated from its FlagSet
//
// Exit status: 0 on success, 1 when the subcommand failed, 2 on a usage
// error (unknown subcommand or flag, missing argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// commands is the dispatch table. Each subcommand parses its own FlagSet and
// writes only to the writers it is handed, so tests drive it in-process.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}{
	{"classify", "classify the global loads of a kernel file or workload as deterministic / non-deterministic", classify},
	{"sim", "run one workload on the timing simulator (or the functional emulator) and print its statistics", sim},
	{"experiments", "regenerate the paper's tables and figures", runExperiments},
	{"fuzz", "differential-fuzzing campaign over generated kernels; replay or emit saved cases", fuzz},
	{"tracestat", "summarize a per-request trace written by sim -trace", tracestat},
}

// errUsage marks a failure that has already been reported together with the
// subcommand's usage; it only selects exit status 2.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, rest := args[0], args[1:]
	switch name {
	case "help", "-h", "-help", "--help":
		if len(rest) == 0 {
			usage(stdout)
			return 0
		}
		name, rest = rest[0], []string{"-h"}
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		err := c.run(rest, stdout, stderr)
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		}
		fmt.Fprintf(stderr, "critload %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stderr, "critload: unknown command %q\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: critload <command> [flags]")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\n`critload help <command>` prints a command's flags.")
}

// newFlagSet builds a subcommand's FlagSet. Its usage text is the synopsis,
// the flags as the FlagSet itself describes them, and the hand-typed examples
// (TestExamplesUseDefinedFlags checks those against the flags).
func newFlagSet(stderr io.Writer, name, synopsis string, examples ...string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: critload %s %s\n", name, synopsis)
		fs.PrintDefaults()
		if len(examples) > 0 {
			fmt.Fprintln(stderr, "examples:")
		}
		for _, e := range examples {
			fmt.Fprintf(stderr, "  critload %s\n", e)
		}
	}
	return fs
}

// parse runs fs over args. The flag package has already printed a parse
// failure and the usage, so it comes back as errUsage; -h comes back as
// flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// seedFlag is the input-generation seed sim and experiments share.
func seedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "input generation seed")
}

// profiles is the pprof flag pair sim and experiments share.
type profiles struct {
	cmd      string
	cpu, mem *string
}

func profileFlags(fs *flag.FlagSet) *profiles {
	return &profiles{
		cmd: fs.Name(),
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write an allocation profile to this file on exit"),
	}
}

// start begins the CPU profile, if one was asked for. The returned stop ends
// it and writes the heap profile, so a deferred stop covers everything the
// subcommand did; the final GC before the heap profile makes its live-heap
// numbers meaningful.
func (p *profiles) start(stderr io.Writer) (stop func(), err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(stderr, "critload %s: cpuprofile: %v\n", p.cmd, err)
			}
		}
		if *p.mem != "" {
			if err := writeHeapProfile(*p.mem); err != nil {
				fmt.Fprintf(stderr, "critload %s: memprofile: %v\n", p.cmd, err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
