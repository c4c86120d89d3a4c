package ptx_test

import (
	"strings"
	"testing"

	"critload/internal/dataflow"
	"critload/internal/ptx"
	"critload/internal/workloads"
)

// disassemble renders every kernel of a program, the way the benchmark
// corpus and the kgen case files are written.
func disassemble(p *ptx.Program) string {
	var b strings.Builder
	for _, k := range p.Kernels {
		b.WriteString(k.Disassemble())
	}
	return b.String()
}

// FuzzPTXParse feeds arbitrary text to the assembler. No input may panic,
// and whatever parses must survive parse → Disassemble → parse →
// Disassemble unchanged: the second disassembly equals the first. Accepted
// kernels also go through everything the daemon derives from untrusted PTX:
// the control-flow graph, the execution tables and the classifier.
func FuzzPTXParse(f *testing.F) {
	for _, w := range workloads.All() {
		inst, err := w.Setup(workloads.Params{Seed: 1})
		if err != nil {
			f.Fatalf("%s setup: %v", w.Name, err)
		}
		f.Add(disassemble(inst.Prog))
	}
	f.Add(".kernel k\n.param .u32 a\nL: @!%p0 ld.global.u32 %r1, [%r0-4]; bra L\nexit")
	f.Add(".kernel k\n    mul.f32 %r1, %r0, -0.0;\n    add.f32 %r1, %r1, 2.0;\n    exit;")
	f.Add(".kernel k\n    mov.u32 %r100000000, 1;\n    exit;")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ptx.Parse(src)
		if err != nil {
			return
		}
		first := disassemble(prog)
		again, err := ptx.Parse(first)
		if err != nil {
			t.Fatalf("disassembly does not parse: %v\n%s", err, first)
		}
		if second := disassemble(again); second != first {
			t.Fatalf("disassembly is not a fixed point:\n%s\nthen\n%s", first, second)
		}
		for _, k := range prog.Kernels {
			k.CFG()
			k.Hazards()
			k.Decoded()
			dataflow.Classify(k)
		}
	})
}

// BenchmarkParseTableI parses the fifteen Table I programs as the daemon
// receives them: the disassembled text of every kernel.
func BenchmarkParseTableI(b *testing.B) {
	var corpus []string
	size := 0
	for _, w := range workloads.All() {
		inst, err := w.Setup(workloads.Params{Seed: 1})
		if err != nil {
			b.Fatalf("%s setup: %v", w.Name, err)
		}
		corpus = append(corpus, disassemble(inst.Prog))
		size += len(corpus[len(corpus)-1])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range corpus {
			if _, err := ptx.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
