package icnt

import "critload/internal/checkpoint"

// snapTag marks one network section of a checkpoint payload.
const snapTag = 0x49434E54 // "ICNT"

// Snapshot serializes the network's persistent state: the per-port busy
// horizons (a flit transfer begun near the end of a launch can keep a port
// busy past the boundary, delaying the next launch's first packets), the
// quiet cache, and the traffic statistics. Packets in flight are pool-owned
// and cannot be serialized, so snapshotting a non-drained network is a
// caller bug.
func (n *Network) Snapshot(w *checkpoint.Writer) {
	if n.pending != 0 {
		panic("icnt: snapshot with packets in flight")
	}
	w.Tag(snapTag)
	w.Int(n.numSrc)
	w.Int(n.numDst)
	for _, t := range n.srcBusy {
		w.I64(t)
	}
	for _, t := range n.dstBusy {
		w.I64(t)
	}
	w.I64(n.quietUntil)
	w.U64(n.Injected)
	w.U64(n.Delivered)
	w.I64(n.TotalDelay)
}

// Restore loads a snapshot into an identically-sized, drained network.
func (n *Network) Restore(r *checkpoint.Reader) error {
	if n.pending != 0 {
		r.Failf("icnt: restore with packets in flight")
		return r.Err()
	}
	r.Tag(snapTag)
	src, dst := r.Int(), r.Int()
	if r.Err() == nil && (src != n.numSrc || dst != n.numDst) {
		r.Failf("icnt: snapshot is %d×%d ports, network is %d×%d", src, dst, n.numSrc, n.numDst)
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range n.srcBusy {
		n.srcBusy[i] = r.I64()
	}
	for i := range n.dstBusy {
		n.dstBusy[i] = r.I64()
	}
	n.quietUntil = r.I64()
	n.Injected = r.U64()
	n.Delivered = r.U64()
	n.TotalDelay = r.I64()
	return r.Err()
}
