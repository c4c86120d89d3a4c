package stats

import (
	"slices"
	"sort"

	"critload/internal/checkpoint"
	"critload/internal/mem"
)

// snapTag marks the collector section of a checkpoint payload.
const snapTag = 0x53544154 // "STAT"

// maxDecodedDistance bounds the CTA distances Restore accepts. The
// histograms are slices indexed by distance, so a corrupt key must not size
// one; a distance this large needs a grid of over a million CTAs sharing a
// block, which no workload launches.
const maxDecodedDistance = 1 << 20

// Snapshot serializes every statistic — exported counters, the per-PC map,
// and the unexported block-access map — so a restored collector is
// reflect.DeepEqual-identical to the original, which is exactly what the
// difftest oracles compare. Everything is written in ascending key order (the
// store is content-addressed): the per-PC map is sorted, the request-count
// buckets, the block table and the histograms are already in order, and only
// buckets, blocks and distances that were reached are written. Each block
// encodes whether a second CTA ever touched it, and if so its CTA set.
func (c *Collector) Snapshot(w *checkpoint.Writer) {
	w.Tag(snapTag)
	w.U64(c.WarpInsts)
	w.U64(c.ThreadInsts)
	w.U64(c.SLoadWarps)
	w.U64(c.GStoreWarps)
	w.U64(c.Prefetches)
	w.U64(c.SMCycles)
	w.I64(c.GPUCycles)
	w.U64(c.BlockLoadReqs)
	for cat := 0; cat < int(NumCats); cat++ {
		w.U64(c.GLoadWarps[cat])
		w.U64(c.GLoadThreads[cat])
		w.U64(c.Requests[cat])
		w.U64(c.L1Acc[cat])
		w.U64(c.L1Miss[cat])
		w.U64(c.L2Acc[cat])
		w.U64(c.L2Miss[cat])
		for o := range c.L1Outcomes[cat] {
			w.U64(c.L1Outcomes[cat][o])
		}
		t := &c.Turnaround[cat]
		w.U64(t.Ops)
		w.I64(t.Total)
		w.I64(t.Unloaded)
		w.I64(t.RsrvPrev)
		w.I64(t.RsrvCurr)
		w.I64(t.MemSystem)
	}
	for u := range c.UnitBusy {
		w.U64(c.UnitBusy[u])
	}
	for s := range c.L2SliceQueries {
		w.U64(c.L2SliceQueries[s])
		w.U64(c.L2SliceHits[s])
	}

	pcKeys := make([]PCKey, 0, len(c.PerPC))
	for k := range c.PerPC {
		pcKeys = append(pcKeys, k)
	}
	sort.Slice(pcKeys, func(i, j int) bool {
		if pcKeys[i].Kernel != pcKeys[j].Kernel {
			return pcKeys[i].Kernel < pcKeys[j].Kernel
		}
		return pcKeys[i].PC < pcKeys[j].PC
	})
	w.Int(len(pcKeys))
	for _, k := range pcKeys {
		p := c.PerPC[k]
		w.Str(k.Kernel)
		w.U32(k.PC)
		w.Bool(p.NonDet)
		buckets := 0
		for n := range p.ByNReq {
			if p.ByNReq[n].Ops != 0 {
				buckets++
			}
		}
		w.Int(buckets)
		for n := range p.ByNReq {
			g := &p.ByNReq[n]
			if g.Ops == 0 {
				continue
			}
			w.Int(n)
			w.U64(g.Ops)
			w.I64(g.Total)
			w.I64(g.Common)
			w.I64(g.GapL1D)
			w.I64(g.GapIcntL2)
			w.I64(g.GapL2Icnt)
		}
	}

	w.Int(int(c.blocks.n))
	c.blocks.each(func(a uint32, b *blockInfo) {
		w.U32(a)
		w.U64(b.count)
		w.I32(b.firstW)
		w.I32(b.lastW)
		w.U64(b.nonDetN)
		w.Bool(b.ctas.n != 0)
		if b.ctas.n != 0 {
			w.Int(int(b.ctas.n))
			for _, id := range b.ctas.ids() {
				w.I32(id)
			}
		}
	})

	writeIntHist(w, c.CTADist)
	for cat := range c.CTADistCat {
		writeIntHist(w, c.CTADistCat[cat])
	}
}

func writeIntHist(w *checkpoint.Writer, h []uint64) {
	n := 0
	for _, v := range h {
		if v != 0 {
			n++
		}
	}
	w.Int(n)
	for k, v := range h {
		if v != 0 {
			w.Int(k)
			w.U64(v)
		}
	}
}

// readIntHist decodes a histogram written by writeIntHist. Distances must
// be strictly ascending within 1..maxDecodedDistance and counts non-zero:
// anything else is not a histogram writeIntHist produces.
func readIntHist(r *checkpoint.Reader) []uint64 {
	n := r.Count(16)
	var h []uint64
	for i := 0; i < n; i++ {
		k, v := r.Int(), r.U64()
		if r.Err() != nil {
			return nil
		}
		switch {
		case k < 1 || k > maxDecodedDistance:
			r.Failf("stats: CTA distance %d outside 1..%d", k, maxDecodedDistance)
		case k < len(h):
			r.Failf("stats: CTA distance %d repeated or out of ascending order", k)
		case v == 0:
			r.Failf("stats: CTA distance %d has a zero count", k)
		}
		if r.Err() != nil {
			return nil
		}
		h = slices.Grow(h, k+1-len(h))[:k+1]
		h[k] = v
	}
	return h
}

// Restore replaces the collector's contents with a snapshot. It decodes into
// a fresh collector first and installs it only on success, so a failed decode
// leaves the receiver unchanged.
func (c *Collector) Restore(r *checkpoint.Reader) error {
	nc := New()
	r.Tag(snapTag)
	nc.WarpInsts = r.U64()
	nc.ThreadInsts = r.U64()
	nc.SLoadWarps = r.U64()
	nc.GStoreWarps = r.U64()
	nc.Prefetches = r.U64()
	nc.SMCycles = r.U64()
	nc.GPUCycles = r.I64()
	nc.BlockLoadReqs = r.U64()
	for cat := 0; cat < int(NumCats); cat++ {
		nc.GLoadWarps[cat] = r.U64()
		nc.GLoadThreads[cat] = r.U64()
		nc.Requests[cat] = r.U64()
		nc.L1Acc[cat] = r.U64()
		nc.L1Miss[cat] = r.U64()
		nc.L2Acc[cat] = r.U64()
		nc.L2Miss[cat] = r.U64()
		for o := range nc.L1Outcomes[cat] {
			nc.L1Outcomes[cat][o] = r.U64()
		}
		t := &nc.Turnaround[cat]
		t.Ops = r.U64()
		t.Total = r.I64()
		t.Unloaded = r.I64()
		t.RsrvPrev = r.I64()
		t.RsrvCurr = r.I64()
		t.MemSystem = r.I64()
	}
	for u := range nc.UnitBusy {
		nc.UnitBusy[u] = r.U64()
	}
	for s := range nc.L2SliceQueries {
		nc.L2SliceQueries[s] = r.U64()
		nc.L2SliceHits[s] = r.U64()
	}

	nPC := r.Count(8)
	for i := 0; i < nPC; i++ {
		key := PCKey{Kernel: r.Str(), PC: r.U32()}
		p := &PCStats{Key: key, NonDet: r.Bool()}
		nBuckets := r.Count(8 * 7)
		for j, last := 0, 0; j < nBuckets; j++ {
			nreq := r.Int()
			g := GapAgg{
				Ops: r.U64(), Total: r.I64(), Common: r.I64(),
				GapL1D: r.I64(), GapIcntL2: r.I64(), GapL2Icnt: r.I64(),
			}
			if r.Err() != nil {
				return r.Err()
			}
			switch {
			case nreq < 1 || nreq > MaxNReq:
				r.Failf("stats: %s pc %#x: bucket of %d requests outside 1..%d", key.Kernel, key.PC, nreq, MaxNReq)
			case nreq <= last:
				r.Failf("stats: %s pc %#x: bucket %d repeated or out of ascending order", key.Kernel, key.PC, nreq)
			case g.Ops == 0:
				r.Failf("stats: %s pc %#x: bucket %d has no ops", key.Kernel, key.PC, nreq)
			}
			if r.Err() != nil {
				return r.Err()
			}
			p.ByNReq[nreq], last = g, nreq
		}
		if r.Err() != nil {
			return r.Err()
		}
		if _, dup := nc.PerPC[key]; dup {
			r.Failf("stats: %s pc %#x repeated", key.Kernel, key.PC)
			return r.Err()
		}
		nc.PerPC[key] = p
	}

	nBlocks := r.Count(4 + 8 + 4 + 4 + 8 + 1)
	for i, next := 0, uint64(0); i < nBlocks; i++ {
		addr := r.U32()
		count, firstW, lastW, nonDetN := r.U64(), r.I32(), r.I32(), r.U64()
		var ctas []int32
		if r.Bool() {
			ctas = make([]int32, r.Count(4))
			for j := range ctas {
				ctas[j] = r.I32()
			}
			if r.Err() == nil && (len(ctas) < 2 || !strictlyAscending(ctas)) {
				r.Failf("stats: block %#x: CTA set %v is not two or more ascending ids", addr, ctas)
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case addr%mem.BlockBytes != 0:
			r.Failf("stats: block address %#x is not %d-byte aligned", addr, mem.BlockBytes)
		case uint64(addr) < next:
			r.Failf("stats: block %#x repeated or out of ascending order", addr)
		case count == 0:
			r.Failf("stats: block %#x has a zero access count", addr)
		}
		if r.Err() != nil {
			return r.Err()
		}
		b := nc.blocks.at(addr)
		*b = blockInfo{count: count, nonDetN: nonDetN, firstW: firstW, lastW: lastW}
		if ctas != nil {
			b.ctas.set(ctas)
		}
		nc.blocks.n++
		next = uint64(addr) + mem.BlockBytes
	}

	nc.CTADist = readIntHist(r)
	for cat := range nc.CTADistCat {
		nc.CTADistCat[cat] = readIntHist(r)
	}
	if err := r.Err(); err != nil {
		return err
	}
	*c = *nc
	return nil
}

func strictlyAscending(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}
