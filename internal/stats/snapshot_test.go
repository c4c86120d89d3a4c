package stats

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/workloads"
)

func snapBytes(c *Collector) []byte {
	w := checkpoint.NewWriter()
	c.Snapshot(w)
	return w.Bytes()
}

// populatedCollector builds a collector exercising every serialized field:
// scalar counters, per-category arrays, the per-PC buckets, block-access
// records without a CTA set, with an inline one and with a spilled one in
// two regions, and the histograms.
func populatedCollector() *Collector {
	c := New()
	c.WarpInsts = 10
	c.ThreadInsts = 320
	c.SLoadWarps = 2
	c.GStoreWarps = 3
	c.Prefetches = 1
	c.SMCycles = 4000
	c.GPUCycles = 900
	c.GLoadWarps[Det] = 4
	c.GLoadWarps[NonDet] = 2
	c.GLoadThreads[NonDet] = 64
	c.Requests[Det] = 8
	c.L1Acc[Det] = 8
	c.L1Miss[Det] = 3
	c.L2Acc[NonDet] = 5
	c.L2Miss[NonDet] = 1
	c.L1Outcomes[Det][0] = 6
	c.L1Outcomes[NonDet][1] = 2
	c.Turnaround[NonDet] = TurnaroundAgg{Ops: 2, Total: 500, Unloaded: 300, RsrvPrev: 40, RsrvCurr: 60, MemSystem: 100}
	c.UnitBusy[0] = 77
	c.L2SliceQueries[1] = 9
	c.L2SliceHits[1] = 4

	p := c.LoadPC("k", 16, true)
	p.ByNReq[1] = GapAgg{Ops: 2, Total: 10, Common: 4, GapL1D: 1, GapIcntL2: 2, GapL2Icnt: 3}
	p.ByNReq[4] = GapAgg{Ops: 1, Total: 30, Common: 8}
	c.LoadPC("k", 8, false).ByNReq[MaxNReq] = GapAgg{Ops: 5, Total: 900}

	for _, a := range []struct {
		cta   int
		block uint32
		cat   Category
	}{
		{5, 128, NonDet}, {1, 128, Det}, {3, 128, NonDet}, {1, 128, NonDet}, // spilled set {1, 3, 5}
		{2, 256, Det},                           // no set
		{7, 0x30080, NonDet}, {9, 0x30080, Det}, // inline set {7, 9}
	} {
		c.observeBlock(a.cta, a.block, a.cat)
	}
	return c
}

// TestSnapshotRoundTrip checks the collector's own contract: a restored
// collector is reflect.DeepEqual-identical to the original and re-serializes
// byte for byte.
func TestSnapshotRoundTrip(t *testing.T) {
	src := populatedCollector()
	b1 := snapBytes(src)

	dst := New()
	if err := dst.Restore(checkpoint.NewReader(b1)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("restored collector differs:\nsrc %+v\ndst %+v", src, dst)
	}
	if b2 := snapBytes(dst); !bytes.Equal(b1, b2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestRestoreLeavesCollectorUnchangedOnError checks the decode-then-install
// contract: a truncated payload leaves the receiver exactly as it was.
func TestRestoreLeavesCollectorUnchangedOnError(t *testing.T) {
	good := snapBytes(populatedCollector())
	for _, cut := range []int{4, len(good) / 2, len(good) - 3} {
		dst := populatedCollector()
		before := snapBytes(dst)
		if err := dst.Restore(checkpoint.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncated payload (%d bytes) accepted", cut)
		}
		if !bytes.Equal(before, snapBytes(dst)) {
			t.Fatalf("failed restore at %d bytes mutated the collector", cut)
		}
	}
}

// emptySections is the byte length of an empty collector's per-PC, block
// and three histogram sections: one zero count each.
const emptySections = 5 * 8

// craft returns a collector payload holding an empty collector's counters
// followed by the given sections — per-PC, blocks, then the overall, D and
// N distance histograms — each written by its func; a missing or nil one is
// written empty.
func craft(sections ...func(w *checkpoint.Writer)) []byte {
	empty := snapBytes(New())
	w := checkpoint.NewWriter()
	for i := 0; i < 5; i++ {
		if i < len(sections) && sections[i] != nil {
			sections[i](w)
		} else {
			w.Int(0)
		}
	}
	return append(empty[:len(empty)-emptySections:len(empty)-emptySections], w.Bytes()...)
}

// pcs writes a per-PC section of one load of kernel "k" at pc 8 whose
// buckets are the given (nreq, ops) pairs.
func pcs(buckets ...[2]int) func(w *checkpoint.Writer) {
	return func(w *checkpoint.Writer) {
		w.Int(1)
		w.Str("k")
		w.U32(8)
		w.Bool(false)
		w.Int(len(buckets))
		for _, b := range buckets {
			w.Int(b[0])
			w.U64(uint64(b[1]))
			for i := 0; i < 5; i++ {
				w.I64(0)
			}
		}
	}
}

// block is one block record; ctas == nil writes a block no second CTA
// touched.
type block struct {
	addr  uint32
	count uint64
	ctas  []int32
}

func blocks(bs ...block) func(w *checkpoint.Writer) {
	return func(w *checkpoint.Writer) {
		w.Int(len(bs))
		for _, b := range bs {
			w.U32(b.addr)
			w.U64(b.count)
			w.I32(0)
			w.I32(0)
			w.U64(0)
			w.Bool(b.ctas != nil)
			if b.ctas != nil {
				w.Int(len(b.ctas))
				for _, id := range b.ctas {
					w.I32(id)
				}
			}
		}
	}
}

// hist writes a distance histogram of the given (distance, count) pairs.
func hist(bins ...[2]int) func(w *checkpoint.Writer) {
	return func(w *checkpoint.Writer) {
		w.Int(len(bins))
		for _, b := range bins {
			w.Int(b[0])
			w.U64(uint64(b[1]))
		}
	}
}

// TestRestoreRejectsWhatTheTablesCannotHold checks that the decoder refuses
// every encoding Snapshot never writes and the dense tables could not
// represent faithfully, with the checkpoint sentinel and without touching
// the receiver: request-count buckets outside 1..32, repeated, descending or
// empty; a repeated load; blocks that are unaligned, repeated, descending,
// never accessed, or whose CTA set is too small or unsorted; and distances
// outside 1..maxDecodedDistance, repeated, descending or with a zero count.
func TestRestoreRejectsWhatTheTablesCannotHold(t *testing.T) {
	ok := craft(pcs([2]int{1, 2}, [2]int{32, 1}),
		blocks(block{128, 3, []int32{1, 2}}, block{256, 1, nil}, block{0x40000, 4, []int32{-1, 4, 9}}),
		hist([2]int{1, 2}, [2]int{7, 1}))
	if err := New().Restore(checkpoint.NewReader(ok)); err != nil {
		t.Fatalf("well-formed crafted payload rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"nreq-zero", craft(pcs([2]int{0, 1})), "outside 1..32"},
		{"nreq-33", craft(pcs([2]int{33, 1})), "outside 1..32"},
		{"nreq-negative", craft(pcs([2]int{-4, 1})), "outside 1..32"},
		{"nreq-duplicate", craft(pcs([2]int{3, 1}, [2]int{3, 1})), "ascending"},
		{"nreq-descending", craft(pcs([2]int{5, 1}, [2]int{2, 1})), "ascending"},
		{"nreq-no-ops", craft(pcs([2]int{5, 0})), "no ops"},
		{"pc-duplicate", craft(func(w *checkpoint.Writer) {
			w.Int(2)
			for i := 0; i < 2; i++ {
				w.Str("k")
				w.U32(8)
				w.Bool(false)
				w.Int(0)
			}
		}), "repeated"},
		{"block-zero-count", craft(nil, blocks(block{128, 0, nil})), "zero access count"},
		{"block-duplicate", craft(nil, blocks(block{128, 1, nil}, block{128, 1, nil})), "ascending"},
		{"block-descending", craft(nil, blocks(block{0x10000, 1, nil}, block{128, 1, nil})), "ascending"},
		{"block-unaligned", craft(nil, blocks(block{130, 1, nil})), "aligned"},
		{"cta-set-of-one", craft(nil, blocks(block{128, 2, []int32{3}})), "CTA set"},
		{"cta-set-empty", craft(nil, blocks(block{128, 2, []int32{}})), "CTA set"},
		{"cta-set-unsorted", craft(nil, blocks(block{128, 2, []int32{4, 1}})), "CTA set"},
		{"cta-set-repeated", craft(nil, blocks(block{128, 2, []int32{4, 4}})), "CTA set"},
		{"distance-zero", craft(nil, nil, hist([2]int{0, 1})), "outside"},
		{"distance-negative", craft(nil, nil, nil, hist([2]int{-3, 1})), "outside"},
		{"distance-huge", craft(nil, nil, nil, nil, hist([2]int{maxDecodedDistance + 1, 1})), "outside"},
		{"distance-duplicate", craft(nil, nil, hist([2]int{2, 1}, [2]int{2, 1})), "ascending"},
		{"distance-descending", craft(nil, nil, hist([2]int{5, 1}, [2]int{2, 1})), "ascending"},
		{"distance-zero-count", craft(nil, nil, hist([2]int{2, 0})), "zero count"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst := populatedCollector()
			before := snapBytes(dst)
			err := dst.Restore(checkpoint.NewReader(c.payload))
			if !errors.Is(err, checkpoint.ErrMalformed) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore = %v, want an ErrMalformed naming %q", err, c.want)
			}
			if !bytes.Equal(before, snapBytes(dst)) {
				t.Fatal("failed restore mutated the collector")
			}
		})
	}
}

// functionalSnapshot returns the collector snapshot of a functional run of
// a workload, classified as experiments.RunFunctional classifies it.
func functionalSnapshot(tb testing.TB, name string, size int) []byte {
	tb.Helper()
	w, ok := workloads.Get(name)
	if !ok {
		tb.Fatalf("no workload %q", name)
	}
	inst, err := w.Setup(workloads.Params{Size: size, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	c := New()
	var current Classifier
	exec := workloads.FunctionalExecutor(inst.Mem, func(ctaID int, _ *emu.Warp, s *emu.Step) {
		c.ObserveStep(ctaID, s, current)
	}, 0)
	if err := inst.Run(func(l *emu.Launch) error {
		current = dataflow.Classify(l.Kernel).NonDetAt
		return exec(l)
	}); err != nil {
		tb.Fatal(err)
	}
	return snapBytes(c)
}

// FuzzCollectorRestore feeds arbitrary payloads to Restore. Each is either
// refused with the checkpoint sentinel or decodes to a collector that
// survives a snapshot/restore round trip reflect.DeepEqual-identical and
// byte for byte; it never panics. bfs/256 is one CTA; bfs/2048's eight CTAs
// add shared blocks with inline and spilled CTA sets and a distance
// histogram.
func FuzzCollectorRestore(f *testing.F) {
	bfs := functionalSnapshot(f, "bfs", 256)
	f.Add(bfs)
	f.Add(bfs[:len(bfs)/2])
	f.Add(functionalSnapshot(f, "bfs", 2048))
	f.Add(snapBytes(populatedCollector()))
	f.Add(snapBytes(New()))
	f.Fuzz(func(t *testing.T, b []byte) {
		c := New()
		if err := c.Restore(checkpoint.NewReader(b)); err != nil {
			if !errors.Is(err, checkpoint.ErrMalformed) {
				t.Fatalf("Restore error %v is not checkpoint.ErrMalformed", err)
			}
			return
		}
		again := snapBytes(c)
		d := New()
		if err := d.Restore(checkpoint.NewReader(again)); err != nil {
			t.Fatalf("re-restore of an accepted payload: %v", err)
		}
		if !reflect.DeepEqual(c, d) {
			t.Fatal("round trip changed the collector")
		}
		if !bytes.Equal(again, snapBytes(d)) {
			t.Fatal("round trip changed the snapshot bytes")
		}
	})
}
