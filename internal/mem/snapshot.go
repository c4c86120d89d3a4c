package mem

import (
	"slices"

	"critload/internal/checkpoint"
)

// snapTag marks the memory section of a checkpoint payload.
const snapTag = 0x4D454D30 // "MEM0"

// Snapshot serializes the full memory contents: the allocator cursor and
// every mapped page in ascending page order (the page table's own order,
// which keeps the encoding deterministic for content addressing).
func (m *Memory) Snapshot(w *checkpoint.Writer) {
	w.Tag(snapTag)
	w.U32(m.brk)
	w.Int(m.Footprint())
	for id, p := range m.pages {
		if p != nil {
			w.U32(uint32(id))
			w.Blob(p[:])
		}
	}
}

// Restore replaces the memory contents wholesale with a snapshot: pages not
// present in the snapshot are unmapped, so the result is byte-identical to
// the memory at snapshot time regardless of what the instance touched since.
// Page ids must be strictly ascending and below numPages, the only encodings
// Snapshot produces and the page table can hold. On error the memory is left
// unchanged.
func (m *Memory) Restore(r *checkpoint.Reader) error {
	r.Tag(snapTag)
	brk := r.U32()
	n := r.Count(4 + PageSize)
	var pages []*[PageSize]byte
	for i := 0; i < n; i++ {
		id := r.U32()
		b := r.Blob()
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case id >= numPages:
			r.Failf("mem: snapshot page id %#x is outside the 32-bit space", id)
		case int(id) < len(pages):
			r.Failf("mem: snapshot page %#x repeated or out of ascending order", id)
		case len(b) != PageSize:
			r.Failf("mem: snapshot page %#x has %d bytes, want %d", id, len(b), PageSize)
		}
		if r.Err() != nil {
			return r.Err()
		}
		pages = slices.Grow(pages, int(id)+1-len(pages))[:id+1]
		pages[id] = (*[PageSize]byte)(b)
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.brk = brk
	m.pages = pages
	return nil
}
