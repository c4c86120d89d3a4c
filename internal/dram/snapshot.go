package dram

import "critload/internal/checkpoint"

// snapTag marks one DRAM channel section of a checkpoint payload.
const snapTag = 0x4452414D // "DRAM"

// Snapshot serializes the channel's persistent state: per-bank busy horizons
// and open rows (bank occupancy from the last launch's stores can extend past
// a kernel boundary, and the open row decides future row hits), plus the
// service statistics. Queued or in-flight requests cannot be serialized —
// they are pool-owned — so snapshotting a non-drained channel is a caller
// bug.
func (c *Controller) Snapshot(w *checkpoint.Writer) {
	if c.Pending() != 0 {
		panic("dram: snapshot with pending requests")
	}
	w.Tag(snapTag)
	w.Int(len(c.banks))
	for i := range c.banks {
		w.I64(c.banks[i].busyUntil)
		w.I64(c.banks[i].openRow)
	}
	w.U64(c.Serviced)
	w.U64(c.RowHits)
	w.U64(c.RowMisses)
	w.I64(c.TotalWait)
}

// Restore loads a snapshot into an identically-configured, drained channel.
func (c *Controller) Restore(r *checkpoint.Reader) error {
	if c.Pending() != 0 {
		r.Failf("dram: restore with pending requests")
		return r.Err()
	}
	r.Tag(snapTag)
	if n := r.Int(); r.Err() == nil && n != len(c.banks) {
		r.Failf("dram: snapshot has %d banks, channel has %d", n, len(c.banks))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range c.banks {
		c.banks[i].busyUntil = r.I64()
		c.banks[i].openRow = r.I64()
	}
	c.Serviced = r.U64()
	c.RowHits = r.U64()
	c.RowMisses = r.U64()
	c.TotalWait = r.I64()
	return r.Err()
}

// Reset returns a drained channel to the state New builds, reusing its
// storage: every bank free and closed, the statistics zero.
func (c *Controller) Reset() {
	if c.Pending() != 0 {
		panic("dram: reset with pending requests")
	}
	for i := range c.banks {
		c.banks[i] = bank{openRow: -1}
	}
	c.Serviced, c.RowHits, c.RowMisses, c.TotalWait = 0, 0, 0, 0
}
