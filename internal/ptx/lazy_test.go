package ptx_test

import (
	"reflect"
	"sync"
	"testing"

	"critload/internal/dataflow"
	"critload/internal/ptx"
)

// TestKernelLazyStateConcurrent: the control-flow graph and the execution
// tables are built on first use, so the first users of a freshly parsed
// kernel may be several goroutines at once (batch classification, CTAs of
// one launch). Under -race this proves the builds are synchronized; every
// goroutine must also see the same immutable results.
func TestKernelLazyStateConcurrent(t *testing.T) {
	prog, err := ptx.Parse(`
.kernel lazy
.param .u32 a
    mov.u32      %r0, %tid.x;
    ld.param.u32 %r1, [a];
LOOP:
    shl.u32      %r2, %r0, 2;
    add.u32      %r3, %r1, %r2;
    ld.global.u32 %r4, [%r3];
    add.u32      %r0, %r4, 32;
    setp.lt.u32  %p0, %r0, 4096;
@%p0 bra LOOP;
    exit;
`)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernels[0]
	const n = 8
	type seen struct {
		cfg     *ptx.CFG
		hazards uintptr
		decoded uintptr
		result  *dataflow.Result
	}
	got := make([]seen, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = seen{
				cfg:     k.CFG(),
				hazards: reflect.ValueOf(k.Hazards()).Pointer(),
				decoded: reflect.ValueOf(k.Decoded()).Pointer(),
				result:  dataflow.Classify(k),
			}
		}()
	}
	start.Done()
	done.Wait()
	for i, s := range got {
		if s.cfg != got[0].cfg || s.hazards != got[0].hazards || s.decoded != got[0].decoded {
			t.Fatalf("goroutine %d saw different lazy state than goroutine 0", i)
		}
		if !reflect.DeepEqual(s.result.Loads, got[0].result.Loads) {
			t.Fatalf("goroutine %d classified differently: %v vs %v", i, s.result.Loads, got[0].result.Loads)
		}
	}
	if len(got[0].result.Loads) != 1 || got[0].result.Loads[0].Class != dataflow.NonDeterministic {
		t.Fatalf("loads = %+v, want one non-deterministic load", got[0].result.Loads)
	}
}
