package mem

import (
	"bytes"
	"strings"
	"testing"

	"critload/internal/checkpoint"
)

func snapBytes(m *Memory) []byte {
	w := checkpoint.NewWriter()
	m.Snapshot(w)
	return w.Bytes()
}

// TestSnapshotRoundTrip checks that the allocator cursor and every mapped
// page survive a restore into a fresh memory byte for byte, and that restore
// replaces the target's contents wholesale — pages absent from the snapshot
// are unmapped.
func TestSnapshotRoundTrip(t *testing.T) {
	src := New()
	base := src.AllocU32s([]uint32{1, 2, 3, 4})
	far := src.Alloc(3 * PageSize) // spans several pages
	src.Write32(far+2*PageSize, 0xDEADBEEF)

	b1 := snapBytes(src)
	dst := New()
	dst.Write32(dst.Alloc(4), 99) // state the restore must erase
	if err := dst.Restore(checkpoint.NewReader(b1)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b2 := snapBytes(dst); !bytes.Equal(b1, b2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(b1), len(b2))
	}
	if got := dst.Read32(base + 8); got != 3 {
		t.Errorf("restored word = %d, want 3", got)
	}
	if got := dst.Read32(far + 2*PageSize); got != 0xDEADBEEF {
		t.Errorf("restored far word = %#x", got)
	}
	if dst.Allocated() != src.Allocated() {
		t.Errorf("brk = %d, want %d", dst.Allocated(), src.Allocated())
	}
}

// TestRestoreLeavesMemoryUnchangedOnError checks the all-or-nothing
// contract: a truncated payload and a payload with a short page both leave
// the receiver exactly as it was.
func TestRestoreLeavesMemoryUnchangedOnError(t *testing.T) {
	src := New()
	src.Write32(src.Alloc(4), 7)
	good := snapBytes(src)

	dst := New()
	addr := dst.Alloc(4)
	dst.Write32(addr, 123)
	before := snapBytes(dst)

	if err := dst.Restore(checkpoint.NewReader(good[:len(good)-PageSize/2])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if !bytes.Equal(before, snapBytes(dst)) || dst.Read32(addr) != 123 {
		t.Fatal("failed restore mutated the memory")
	}

	w := checkpoint.NewWriter()
	w.Tag(snapTag)
	w.U32(PageSize)
	w.Int(1)
	w.U32(0)
	w.Blob(make([]byte, PageSize+8)) // not a full page
	err := dst.Restore(checkpoint.NewReader(w.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "page") {
		t.Fatalf("short page: %v", err)
	}
	if !bytes.Equal(before, snapBytes(dst)) {
		t.Fatal("failed restore mutated the memory")
	}
}

// TestRestoreRejectsPageIDs checks that the decoder refuses page lists the
// page table cannot hold or Snapshot never writes: an id beyond the 32-bit
// space (it would size the table), a repeated id (it would silently
// overwrite) and a descending pair.
func TestRestoreRejectsPageIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []uint32
	}{
		{"beyond-space", []uint32{numPages}},
		{"huge", []uint32{0xFFFFFFFF}},
		{"duplicate", []uint32{3, 3}},
		{"descending", []uint32{5, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := checkpoint.NewWriter()
			w.Tag(snapTag)
			w.U32(PageSize)
			w.Int(len(c.ids))
			for _, id := range c.ids {
				w.U32(id)
				w.Blob(make([]byte, PageSize))
			}
			dst := New()
			dst.Write32(dst.Alloc(4), 123)
			before := snapBytes(dst)
			err := dst.Restore(checkpoint.NewReader(w.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "page") {
				t.Fatalf("Restore(%v) = %v, want a page-id error", c.ids, err)
			}
			if !bytes.Equal(before, snapBytes(dst)) {
				t.Fatal("failed restore mutated the memory")
			}
		})
	}
}
