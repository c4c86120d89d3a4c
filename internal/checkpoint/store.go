package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"critload/internal/blobstore"
)

// Version identifies the on-disk format AND the component snapshot layout.
// Bump it whenever any Snapshot encoding changes; files written by a
// different version are treated as absent (cold start), never decoded.
const Version = 1

// format is the checkpoint file framing: internal/blobstore's, with the
// 32-byte Meta block as header. Checkpoints are a cache — a lost one costs a
// cold start — so writes are not fsync'd.
var format = blobstore.Format{Magic: "CRITCKPT", Version: Version, Ext: ".ckpt", HeaderLen: metaLen}

// Key identifies a run prefix: a SHA-256 over the canonical description of
// everything that determines simulated state at a boundary (workload, size,
// seed, architectural configuration) — and nothing that provably cannot
// (engine selection, run-length budgets).
type Key [sha256.Size]byte

// KeyOf hashes canonical key material.
func KeyOf(material []byte) Key { return sha256.Sum256(material) }

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Meta describes one stored snapshot.
type Meta struct {
	// Index is the kernel-launch boundary: the number of launches completed
	// before the snapshot was taken (always ≥ 1; the boundary before the
	// first launch is the initial state and never stored).
	Index int
	// Cycle is the simulated cycle count at the boundary.
	Cycle int64
	// SkippedCycles is the portion of Cycle the fast-forward engine skipped.
	SkippedCycles int64
	// WarpInsts is the warp-instruction count at the boundary; checkpoint
	// validity against a MaxWarpInsts budget is checked at load time.
	WarpInsts uint64
}

// metaLen is Meta's encoded size: four little-endian 64-bit fields.
const metaLen = 32

func (m Meta) encode() []byte {
	b := make([]byte, 0, metaLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Index))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cycle))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SkippedCycles))
	return binary.LittleEndian.AppendUint64(b, m.WarpInsts)
}

func decodeMeta(b []byte) Meta {
	return Meta{
		Index:         int(binary.LittleEndian.Uint64(b)),
		Cycle:         int64(binary.LittleEndian.Uint64(b[8:])),
		SkippedCycles: int64(binary.LittleEndian.Uint64(b[16:])),
		WarpInsts:     binary.LittleEndian.Uint64(b[24:]),
	}
}

// Stats is the store's on-disk footprint.
type Stats struct {
	Files int
	Bytes int64
}

// Store is the on-disk content-addressed checkpoint store: a blobstore of
// <key-hex>.k<index>.ckpt files, so writes are atomic, reads validate, and
// files are evicted least-recently-used against the byte budget. It is safe
// for concurrent use by multiple goroutines and processes.
type Store struct {
	blobs *blobstore.Store
}

// Open creates (if needed) and opens a store directory. budgetBytes bounds
// the on-disk footprint; <= 0 means unlimited.
func Open(dir string, budgetBytes int64) (*Store, error) {
	blobs, err := blobstore.Open(dir, budgetBytes, format)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	return &Store{blobs: blobs}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.blobs.Dir() }

// blobName names the blob for (key, index); the file is blobName + ".ckpt".
func blobName(key Key, index int) string { return fmt.Sprintf("%s.k%06d", key, index) }

// Save writes one snapshot atomically. Saving an index that already exists is
// a no-op: checkpoints are content-addressed, so an existing file for the
// same (key, index) necessarily holds identical state.
func (s *Store) Save(key Key, m Meta, payload []byte) error {
	if m.Index < 1 {
		return fmt.Errorf("checkpoint: refusing to save boundary index %d (initial state is never stored)", m.Index)
	}
	if s.Has(key, m.Index) {
		return nil
	}
	if err := s.blobs.Write(blobName(key, m.Index), m.encode(), payload); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Has reports whether a checkpoint exists for (key, index); it does not
// validate the file (Load and Best do).
func (s *Store) Has(key Key, index int) bool { return s.blobs.Has(blobName(key, index)) }

// Load reads and validates one checkpoint. Corrupt or version-mismatched
// files are deleted so they are never retried, and the matching blobstore
// sentinel error is returned; a missing one yields blobstore.ErrNotFound.
func (s *Store) Load(key Key, index int) (Meta, []byte, error) {
	name := blobName(key, index)
	header, payload, err := s.blobs.Read(name)
	if err != nil {
		return Meta{}, nil, err
	}
	m := decodeMeta(header)
	if m.Index != index {
		s.blobs.Drop(name)
		return Meta{}, nil, fmt.Errorf("%w: file named k%06d holds index %d", blobstore.ErrCorrupt, index, m.Index)
	}
	return m, payload, nil
}

// Best returns the deepest valid checkpoint for the key that a run with the
// given budgets can resume from: the snapshot's prefix must not have tripped
// either limit, i.e. WarpInsts strictly below maxWarpInsts (when set) and
// Cycle strictly below maxCycles (when set). Invalid files encountered on the
// way down are dropped; deeper checkpoints that merely exceed the budgets are
// left in place for future, larger-budget runs.
func (s *Store) Best(key Key, maxWarpInsts uint64, maxCycles int64) (Meta, []byte, bool) {
	var indices []int
	prefix := key.String() + ".k"
	for _, name := range s.blobs.Names() {
		if digits, ok := strings.CutPrefix(name, prefix); ok {
			if idx, err := strconv.Atoi(digits); err == nil {
				indices = append(indices, idx)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(indices)))
	for _, idx := range indices {
		m, payload, err := s.Load(key, idx)
		if err != nil {
			continue // dropped if invalid; just missing if raced
		}
		if maxWarpInsts > 0 && m.WarpInsts >= maxWarpInsts {
			continue
		}
		if maxCycles > 0 && m.Cycle >= maxCycles {
			continue
		}
		return m, payload, true
	}
	return Meta{}, nil, false
}

// Stats scans the store directory.
func (s *Store) Stats() Stats {
	b := s.blobs.Stats()
	return Stats{Files: b.Files, Bytes: b.Bytes}
}
