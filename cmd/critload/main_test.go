package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"critload/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// critload runs the CLI in-process and returns its exit status and streams.
func critload(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// golden compares got with testdata/<name>.golden (or rewrites it on -update).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (go test ./cmd/critload -update rewrites it):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestGoldenOutput pins the stdout bytes of the deterministic subcommands;
// the goldens were checked against the five deleted mains when they moved.
func TestGoldenOutput(t *testing.T) {
	tests := []struct {
		golden string
		args   []string
	}{
		{"classify_bfs_v", []string{"classify", "-workload", "bfs", "-v"}},
		{"classify_list", []string{"classify", "-list"}},
		{"sim_2mm", []string{"sim", "-workload", "2mm", "-size", "32", "-max-insts", "20000"}}, // 7855 cycles
		{"sim_2mm_functional", []string{"sim", "-workload", "2mm", "-size", "32", "-functional", "-verify"}},
	}
	for _, tt := range tests {
		t.Run(tt.golden, func(t *testing.T) {
			code, stdout, stderr := critload(tt.args...)
			if code != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			golden(t, tt.golden, stdout)
		})
	}
}

// TestSimTraceThenTracestat drives the offline per-PC path end to end. Every
// srad load issues the same number of requests, so its per-PC table is all
// ties: it must come out in (kernel, PC) order on every run, not in map
// order.
func TestSimTraceThenTracestat(t *testing.T) {
	for _, w := range []string{"2mm", "srad"} {
		t.Run(w, func(t *testing.T) {
			csv := filepath.Join(t.TempDir(), w+".csv")
			code, stdout, stderr := critload("sim", "-workload", w, "-size", "32", "-trace", csv)
			if code != 0 || !strings.Contains(stdout, "requests written to "+csv+" (0 dropped)") {
				t.Fatalf("sim -trace: exit %d\n%s%s", code, stdout, stderr)
			}
			code, first, stderr := critload("tracestat", csv)
			if code != 0 || stderr != "" {
				t.Fatalf("tracestat: exit %d, stderr %q", code, stderr)
			}
			golden(t, "tracestat_"+w, first)
			for i := 1; i < 20; i++ {
				if _, again, _ := critload("tracestat", csv); again != first {
					t.Fatalf("run %d printed a different table:\n%s\n--- first\n%s", i, again, first)
				}
			}
		})
	}
}

// TestSimWritesProfiles checks the pprof pair sim shares with experiments:
// both files are written and the run's output is unchanged by profiling.
func TestSimWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, stdout, stderr := critload("sim", "-workload", "2mm", "-size", "32", "-max-insts", "20000",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	golden(t, "sim_2mm", stdout)
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", f, err)
		}
	}
}

func TestFuzzExitStatus(t *testing.T) {
	code, stdout, stderr := critload("fuzz", "-seeds", "3")
	if code != 0 || !strings.Contains(stdout, "campaign done: 3 seeds checked, 0 findings") {
		t.Fatalf("clean campaign: exit %d\n%s%s", code, stdout, stderr)
	}
	// An emitted corpus replays clean.
	dir := t.TempDir()
	if code, stdout, _ := critload("fuzz", "-emit-corpus", "2", "-start", "7", "-out", dir); code != 0 ||
		!strings.Contains(stdout, "emitted kgen_0000000000000008") {
		t.Fatalf("emit-corpus: exit %d\n%s", code, stdout)
	}
	if code, stdout, _ := critload("fuzz", "-replay", dir); code != 0 || strings.Count(stdout, "ok   kgen_") != 2 {
		t.Fatalf("replay of the emitted corpus: exit %d\n%s", code, stdout)
	}
	// A planted engine difference must be found, shrunk and saved.
	dir = t.TempDir()
	code, stdout, stderr = critload("fuzz", "-seeds", "3", "-plant", "-out", dir)
	if code != 1 || !strings.Contains(stdout, "3 findings") || !strings.Contains(stderr, "critload fuzz: 3 findings") {
		t.Fatalf("planted campaign: exit %d\n%s%s", code, stdout, stderr)
	}
	for _, f := range []string{"kgen_0000000000000001.ptx", "kgen_0000000000000001.json", "kgen_0000000000000001.report.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("shrunk case not saved: %v", err)
		}
	}
	// The saved case replays, and fails for the same planted reason only.
	if code, _, _ := critload("fuzz", "-replay", dir); code != 0 {
		t.Errorf("replay of the shrunk cases without -plant: exit %d, want 0", code)
	}
	if code, _, _ := critload("fuzz", "-replay", dir, "-plant"); code != 1 {
		t.Errorf("replay of the shrunk cases with -plant: exit %d, want 1", code)
	}
}

// TestExperimentsDocNamesTheOneCommand pins EXPERIMENTS.md to the command
// that reproduces it: every `critload experiments` command the file shows,
// the reproduction block at its top and the "Generated by" footer included,
// is the no-flag -markdown sweep (optionally narrowed to one artifact), and
// the window the footer states is the one that command defaults to.
func TestExperimentsDocNamesTheOneCommand(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	const cmd = "go run ./cmd/critload experiments -markdown"
	uses := regexp.MustCompile(`go run \./cmd/critload experiments[^\x60#\n]*`).FindAllString(text, -1)
	if len(uses) < 4 {
		t.Errorf("EXPERIMENTS.md shows %d experiments commands, want the reproduction block's two, the ablation note's and the footer's", len(uses))
	}
	for _, use := range uses {
		use = strings.TrimSpace(use)
		rest, ok := strings.CutPrefix(use, cmd)
		if rest = strings.TrimSpace(rest); !ok || (rest != "" && !regexp.MustCompile(`^-artifact [a-z0-9]+$`).MatchString(rest)) {
			t.Errorf("EXPERIMENTS.md shows %q, want %q with at most -artifact", use, cmd)
		}
	}
	if !regexp.MustCompile("(?m)^" + regexp.QuoteMeta(cmd) + ` +# everything below$`).MatchString(text) {
		t.Errorf("the reproduction block does not open with the no-flag %q", cmd)
	}

	_, footer, ok := strings.Cut(text, "Generated by ")
	if !ok || !strings.HasPrefix(footer, "`"+cmd+"`") {
		t.Fatalf("the footer does not say it was generated by `%s`", cmd)
	}
	footer, _, _ = strings.Cut(footer, "\n\n")
	m := regexp.MustCompile(`([0-9][0-9,]*) warp instructions`).FindStringSubmatch(footer)
	if m == nil {
		t.Fatalf("the footer states no window:\n%s", footer)
	}
	window, err := strconv.ParseUint(strings.ReplaceAll(m[1], ",", ""), 10, 64)
	if err != nil || window != experiments.ReproductionWindow {
		t.Errorf("the footer states a %s-instruction window, the command defaults to %d", m[1], experiments.ReproductionWindow)
	}
}

func TestFailuresAndUsageErrors(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		{"unknown artifact", []string{"experiments", "-artifact", "nosuch"}, 1, `critload experiments: unknown artifact "nosuch"`},
		{"unknown workload", []string{"classify", "-workload", "nosuch"}, 1, `unknown workload "nosuch" (try -list)`},
		{"classify without input", []string{"classify"}, 1, "one of -file, -workload or -list is required"},
		{"bad policy", []string{"sim", "-workload", "2mm", "-cta-policy", "zzz"}, 1, `unknown CTA policy "zzz"`},
		{"missing trace", []string{"tracestat", filepath.Join(t.TempDir(), "none.csv")}, 1, "none.csv"},
		{"no command", nil, 2, "usage: critload <command>"},
		{"unknown command", []string{"gpgpusim"}, 2, `unknown command "gpgpusim"`},
		{"unknown flag", []string{"experiments", "-size-scale", "small"}, 2, "flag provided but not defined: -size-scale"},
		{"sim without workload", []string{"sim"}, 2, "usage: critload sim -workload <name>"},
		{"tracestat without file", []string{"tracestat"}, 2, "usage: critload tracestat <trace.csv>"},
		{"unwritable profile", []string{"sim", "-workload", "2mm", "-cpuprofile", filepath.Join(t.TempDir(), "no", "cpu.prof")}, 1, "critload sim: cpuprofile:"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, stdout, stderr := critload(tt.args...)
			if code != tt.code || !strings.Contains(stderr, tt.stderr) || stdout != "" {
				t.Errorf("exit %d (want %d), stdout %q, stderr %q (want %q in it)", code, tt.code, stdout, stderr, tt.stderr)
			}
		})
	}
}

var (
	flagLine  = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`) // flag.PrintDefaults' "  -name type"
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// helpOf returns a subcommand's generated usage split into its defined flag
// names and its hand-typed example lines.
func helpOf(t *testing.T, cmd string) (flags []string, examples string) {
	t.Helper()
	code, _, text := critload("help", cmd)
	if code != 0 || !strings.HasPrefix(text, "usage: critload "+cmd+" ") {
		t.Fatalf("help %s: exit %d\n%s", cmd, code, text)
	}
	if _, _, dashH := critload(cmd, "-h"); dashH != text {
		t.Errorf("`%s -h` and `help %s` differ", cmd, cmd)
	}
	text, examples, _ = strings.Cut(text, "examples:\n")
	for _, m := range flagLine.FindAllStringSubmatch(text, -1) {
		flags = append(flags, m[1])
	}
	return flags, examples
}

// TestFlagSetsAreTheDeletedMains pins the option surface: the five
// subcommands define exactly the flags of loadclass, gpgpusim, experiments,
// kfuzz and tracestat, plus sim's -cpuprofile and -memprofile, which it
// shares with experiments.
func TestFlagSetsAreTheDeletedMains(t *testing.T) {
	want := map[string]string{
		"classify":    "file list v workload",
		"sim":         "cpuprofile cta-policy functional max-insts memprofile seed size trace verify warp-policy workload",
		"experiments": "artifact cpuprofile markdown max-insts memprofile parallel seed",
		"fuzz":        "duration emit-corpus out plant replay seeds start v",
		"tracestat":   "",
	}
	_, top, _ := critload("help")
	for _, c := range commands {
		flags, _ := helpOf(t, c.name)
		sort.Strings(flags)
		if got := strings.Join(flags, " "); got != want[c.name] {
			t.Errorf("%s flags = %q, want %q", c.name, got, want[c.name])
		}
		if !strings.Contains(top, "\n  "+c.name+" ") {
			t.Errorf("`critload help` does not list %s:\n%s", c.name, top)
		}
	}
	if len(commands) != len(want) {
		t.Errorf("%d subcommands, want %d", len(commands), len(want))
	}
}

// TestExamplesUseDefinedFlags keeps the hand-typed examples honest (the old
// experiments usage advertised a -size-scale flag that never existed): every
// -flag token must be defined by the subcommand the example line invokes.
func TestExamplesUseDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	examples := map[string]string{}
	for _, c := range commands {
		var flags []string
		flags, examples[c.name] = helpOf(t, c.name)
		defined[c.name] = map[string]bool{}
		for _, f := range flags {
			defined[c.name][f] = true
		}
	}
	for _, c := range commands {
		for _, line := range strings.Split(strings.TrimSpace(examples[c.name]), "\n") {
			line, _, _ = strings.Cut(line, "#")
			words := strings.Fields(line)
			if len(words) < 2 || words[0] != "critload" || defined[words[1]] == nil {
				t.Errorf("%s example %q does not invoke a critload subcommand", c.name, line)
				continue
			}
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				if !defined[words[1]][m[1]] {
					t.Errorf("%s example %q uses -%s, which %s does not define", c.name, line, m[1], words[1])
				}
			}
		}
	}
}
