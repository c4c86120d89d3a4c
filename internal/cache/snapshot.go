package cache

import "critload/internal/checkpoint"

// snapTag marks one cache section of a checkpoint payload.
const snapTag = 0x43414348 // "CACH"

// Snapshot serializes the tag arrays (including LRU timestamps — future
// eviction decisions depend on them exactly) and the outcome counters. It is
// only valid at a kernel-launch boundary, where no miss is in flight: a
// reserved line or MSHR entry would reference pool-owned requests whose
// identity cannot survive serialization, so snapshotting mid-flight is a
// caller bug worth failing loudly on.
func (c *Cache) Snapshot(w *checkpoint.Writer) {
	if c.PendingMisses() != 0 {
		panic("cache: snapshot with in-flight misses")
	}
	w.Tag(snapTag)
	w.Int(c.numSets)
	w.Int(c.cfg.Ways)
	for i := range c.lines {
		ln := &c.lines[i]
		w.U32(ln.tag)
		w.U8(uint8(ln.state))
		w.I64(ln.lastUse)
	}
	for o := range c.Accesses {
		w.U64(c.Accesses[o])
	}
	w.U64(c.FillCount)
}

// Restore loads a snapshot taken from an identically-configured cache. The
// receiver must itself be at a boundary (no in-flight misses).
func (c *Cache) Restore(r *checkpoint.Reader) error {
	if c.PendingMisses() != 0 {
		return errActive(r)
	}
	r.Tag(snapTag)
	numSets, ways := r.Int(), r.Int()
	if r.Err() == nil && (numSets != c.numSets || ways != c.cfg.Ways) {
		r.Failf("cache: snapshot geometry %d sets × %d ways does not match %d × %d",
			numSets, ways, c.numSets, c.cfg.Ways)
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range c.lines {
		tag := r.U32()
		state := lineState(r.U8())
		lastUse := r.I64()
		if r.Err() == nil && state == reserved {
			r.Failf("cache: snapshot holds a reserved line for block %#x", tag)
		}
		c.lines[i] = line{tag: tag, state: state, lastUse: lastUse}
	}
	for o := range c.Accesses {
		c.Accesses[o] = r.U64()
	}
	c.FillCount = r.U64()
	return r.Err()
}

func errActive(r *checkpoint.Reader) error {
	r.Failf("cache: restore with in-flight misses")
	return r.Err()
}
