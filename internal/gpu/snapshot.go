package gpu

import (
	"fmt"

	"critload/internal/checkpoint"
)

// snapTag marks the device section of a checkpoint payload.
const snapTag = 0x47505530 // "GPU0"

// Arch returns the configuration with every field that provably cannot
// change simulated state cleared: the engine selection (the naive and
// fast-forward loops are byte-identical by the differential-testing
// contract) and the run-length budgets (a checkpoint's validity against a
// budget is checked when it is loaded, not baked into its identity). Two
// configurations with equal Arch() produce identical state at every
// kernel-launch boundary, which is what makes Arch() the right ingredient
// for checkpoint prefix keys.
func (c Config) Arch() Config {
	c.FastForward = false
	c.MaxCycles = 0
	c.MaxWarpInsts = 0
	return c
}

// AtBoundary reports whether the device is at a kernel-launch boundary with
// all transient state drained: no live CTAs, both networks empty, every
// partition and SM idle. This holds before the first launch and after every
// LaunchKernel that ran to completion; it does not hold after a launch that
// hard-stopped on the warp-instruction budget (in-flight work is frozen, not
// drained).
func (g *GPU) AtBoundary() bool {
	if g.liveCTAs > 0 || g.reqNet.Pending() > 0 || g.replyNet.Pending() > 0 {
		return false
	}
	for _, p := range g.parts {
		if !p.idle() {
			return false
		}
	}
	for _, s := range g.sms {
		if !s.Idle() {
			return false
		}
	}
	return true
}

// Snapshot serializes the full device state at a kernel-launch boundary. The
// boundary invariant is what makes the payload closed: with every queue
// drained, the device's future behaviour is fully determined by the cycle
// counters, the cache arrays, the DRAM bank and network port horizons, the
// statistics collector, and the memory contents — all captured here. The
// request pools are deliberately absent: memreq.Pool.Get fully zeroes each
// request, so a pool restarting empty is observationally identical.
func (g *GPU) Snapshot() ([]byte, error) {
	if !g.AtBoundary() {
		return nil, fmt.Errorf("gpu: snapshot outside a kernel-launch boundary")
	}
	w := checkpoint.NewWriter()
	w.Tag(snapTag)
	w.Int(len(g.sms))
	w.Int(len(g.parts))
	w.I64(g.cycle)
	w.I64(g.SkippedCycles)
	w.Int(g.pinHint)
	g.Col.Snapshot(w)
	g.Mem.Snapshot(w)
	for _, s := range g.sms {
		s.Snapshot(w)
	}
	for _, p := range g.parts {
		p.l2.Snapshot(w)
		p.ch.Snapshot(w)
		w.I64(p.quiet)
	}
	g.reqNet.Snapshot(w)
	g.replyNet.Snapshot(w)
	return w.Bytes(), nil
}

// Restore loads a snapshot taken from a device with an equal Arch()
// configuration. The receiver must be at a boundary (fresh devices are). On
// error the device may be partially restored and must be discarded; callers
// that need to survive a failed restore re-run cold from a fresh device (see
// the experiments warm-start planner).
func (g *GPU) Restore(payload []byte) error {
	err := g.restore(payload)
	g.failed = g.failed || err != nil
	return err
}

func (g *GPU) restore(payload []byte) error {
	if !g.AtBoundary() {
		return fmt.Errorf("gpu: restore outside a kernel-launch boundary")
	}
	r := checkpoint.NewReader(payload)
	r.Tag(snapTag)
	nSMs, nParts := r.Int(), r.Int()
	if r.Err() == nil && (nSMs != len(g.sms) || nParts != len(g.parts)) {
		r.Failf("gpu: snapshot is %d SMs × %d partitions, device is %d × %d",
			nSMs, nParts, len(g.sms), len(g.parts))
	}
	if err := r.Err(); err != nil {
		return err
	}
	g.cycle = r.I64()
	g.SkippedCycles = r.I64()
	g.pinHint = r.Int()
	if err := g.Col.Restore(r); err != nil {
		return err
	}
	if err := g.Mem.Restore(r); err != nil {
		return err
	}
	for _, s := range g.sms {
		if err := s.Restore(r); err != nil {
			return err
		}
	}
	for _, p := range g.parts {
		if err := p.l2.Restore(r); err != nil {
			return err
		}
		if err := p.ch.Restore(r); err != nil {
			return err
		}
		p.quiet = r.I64()
	}
	if err := g.reqNet.Restore(r); err != nil {
		return err
	}
	if err := g.replyNet.Restore(r); err != nil {
		return err
	}
	return r.Close()
}
