// Package blobstore is the one on-disk store under the checkpoint store and
// the result store: a flat directory of framed, integrity-checked blobs,
// written atomically (temp file + rename), validated on every read (invalid
// files are deleted and counted), and evicted least-recently-used by mtime
// against a byte budget (reads refresh mtime). A write costs O(1): the
// directory is scanned only when a write takes the store past its budget,
// and that pass evicts down to a low-water mark of 7/8 of the budget, so a
// full store scans once per budget/8 bytes written. A Store is safe for
// concurrent use; concurrent processes sharing a directory are safe too,
// because every write is an atomic rename and every read validates.
//
// Nothing is fsynced: both stores are caches of deterministic computations.
// After a power loss a blob may be missing, empty or torn; the read
// validation turns each of those into an absent blob, which the caller
// recomputes.
package blobstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors. ErrCorrupt and ErrVersion both mean the file was deleted
// and must be treated as absent.
var (
	// ErrCorrupt marks a truncated, bit-flipped or foreign file.
	ErrCorrupt = errors.New("blobstore: corrupt file")
	// ErrVersion marks an intact file written under a different version.
	ErrVersion = errors.New("blobstore: format version mismatch")
	// ErrNotFound marks a missing blob.
	ErrNotFound = errors.New("blobstore: not found")
)

// partialExt is appended to the extension of in-flight temp files.
const partialExt = ".partial"

// Format fixes one file type's framing:
//
//	Magic | u32 Version | header [HeaderLen]byte | u64 len(payload) | payload | SHA-256 of all before
//
// Integers are little-endian. The header is a fixed-size block the caller
// owns; the store never interprets it.
type Format struct {
	Magic     string // opens every file
	Version   uint32 // files of another version are dropped, never decoded
	Ext       string // file suffix, with the dot
	HeaderLen int    // bytes of caller-owned header
}

// Encode frames header and payload; len(header) must be f.HeaderLen.
func (f Format) Encode(header, payload []byte) []byte {
	if len(header) != f.HeaderLen {
		panic(fmt.Sprintf("blobstore: header is %d bytes, format %q wants %d", len(header), f.Ext, f.HeaderLen))
	}
	buf := make([]byte, 0, len(f.Magic)+4+f.HeaderLen+8+len(payload)+sha256.Size)
	buf = append(buf, f.Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, f.Version)
	buf = append(buf, header...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// Decode validates a framed file and returns its header and payload, both
// aliasing b. The integrity hash is checked before any field is trusted;
// the version check runs after it, so ErrVersion is only reported for files
// that are intact but foreign.
func (f Format) Decode(b []byte) (header, payload []byte, err error) {
	payloadAt := len(f.Magic) + 4 + f.HeaderLen + 8
	if len(b) < payloadAt+sha256.Size {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than any valid file", ErrCorrupt, len(b))
	}
	if string(b[:len(f.Magic)]) != f.Magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, nil, fmt.Errorf("%w: integrity hash mismatch", ErrCorrupt)
	}
	off := len(f.Magic)
	if v := binary.LittleEndian.Uint32(b[off:]); v != f.Version {
		return nil, nil, fmt.Errorf("%w: file version %d, store version %d", ErrVersion, v, f.Version)
	}
	off += 4
	header = body[off : off+f.HeaderLen]
	if n := binary.LittleEndian.Uint64(b[off+f.HeaderLen:]); n != uint64(len(body)-payloadAt) {
		return nil, nil, fmt.Errorf("%w: payload length %d does not match file size", ErrCorrupt, n)
	}
	return header, body[payloadAt:], nil
}

// Stats is a point-in-time snapshot of a store's counters plus a directory
// scan. Files and Bytes include crash-orphaned temp files, which count
// toward the budget until eviction removes them.
type Stats struct {
	Writes    uint64 // blobs written
	Evictions uint64 // files removed by the byte budget
	Dropped   uint64 // invalid files deleted on read
	Files     int    // store-owned files currently on disk
	Bytes     int64  // their total size
}

// Store is one directory of blobs in one Format.
//
// It keeps an upper bound on its footprint instead of scanning the
// directory on every write: the bytes one scan found (at Open, or at the
// last eviction pass) plus the framed size of every blob written since.
// Replaced blobs, and files removed by Drop or by another process, only
// make the bound loose, never low. Another process sharing the directory adds bytes this bound
// does not see until this store's next pass, so the directory can exceed
// the budget by what other processes wrote since then, until any writer's
// pass runs.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 disables eviction
	format Format

	mu    sync.Mutex // guards bound and serializes eviction passes
	bound int64      // upper bound on the store-owned bytes on disk

	writes, evictions, dropped atomic.Uint64
}

// Open creates (if needed) and opens a store directory. budgetBytes bounds
// the on-disk footprint; <= 0 means unlimited. A budgeted store scans the
// directory once here, so blobs left by earlier runs count from the start.
func Open(dir string, budgetBytes int64, format Format) (*Store, error) {
	if dir == "" {
		return nil, errors.New("empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, budget: budgetBytes, format: format}
	if s.budget > 0 {
		_, s.bound = s.scan()
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+s.format.Ext) }

// Has reports whether a file exists for name, without validating it.
func (s *Store) Has(name string) bool {
	_, err := os.Stat(s.path(name))
	return err == nil
}

// Write frames and stores one blob under name, replacing any existing file
// atomically. It does not fsync, so a power loss can lose or tear the blob;
// Read then reports it absent. If the write takes the store past its byte
// budget, Write runs an eviction pass.
func (s *Store) Write(name string, header, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+s.format.Ext+partialExt)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has happened
	blob := s.format.Encode(header, payload)
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := s.path(name)
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.evict(path, int64(len(blob)))
	return nil
}

// Read returns the validated header and payload stored under name and
// refreshes the file's mtime so eviction tracks use, not just creation. An
// invalid file is deleted, so it is never retried, and ErrCorrupt or
// ErrVersion returned; a missing one yields ErrNotFound.
func (s *Store) Read(name string) (header, payload []byte, err error) {
	path := s.path(name)
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, err
	}
	header, payload, err = s.format.Decode(b)
	if err != nil {
		s.Drop(name)
		return nil, nil, err
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	return header, payload, nil
}

// Drop deletes the file under name and counts it as dropped: for callers
// whose own validation rejects a blob the framing accepted.
func (s *Store) Drop(name string) {
	os.Remove(s.path(name))
	s.dropped.Add(1)
}

// Names lists the stored blobs' names (extension stripped), unvalidated
// and in directory order.
func (s *Store) Names() []string {
	entries, _ := os.ReadDir(s.dir)
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), s.format.Ext); ok {
			names = append(names, name)
		}
	}
	return names
}

// Stats returns current counters plus an on-disk scan.
func (s *Store) Stats() Stats {
	files, total := s.scan()
	return Stats{Writes: s.writes.Load(), Evictions: s.evictions.Load(), Dropped: s.dropped.Load(),
		Files: len(files), Bytes: total}
}

// scan lists the files the store owns — blobs, and temp files of its own
// naming, which are either in flight or orphaned by a crash between
// CreateTemp and Rename — and their total size. Anything else in the
// directory is foreign: never counted, never touched.
func (s *Store) scan() (files []os.FileInfo, total int64) {
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		if !strings.HasSuffix(strings.TrimSuffix(e.Name(), partialExt), s.format.Ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, info)
		total += info.Size()
	}
	return files, total
}

// evict adds a just-written blob of size bytes to the footprint bound and,
// only if that takes the bound past the budget, runs an eviction pass: one
// directory scan, then least-recently-used files are removed until the
// store fits the low-water mark (7/8 of the budget), never the just-written
// file, and the bound is reset to what the pass left. Orphaned temp files
// age out the same way; an in-flight one has the newest mtime and goes last.
func (s *Store) evict(keep string, size int64) {
	if s.budget <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound += size; s.bound <= s.budget {
		return
	}
	files, total := s.scan()
	lowWater := s.budget - s.budget/8
	sort.Slice(files, func(i, j int) bool { return files[i].ModTime().Before(files[j].ModTime()) })
	for _, f := range files {
		if total <= lowWater {
			break
		}
		if path := filepath.Join(s.dir, f.Name()); path != keep && os.Remove(path) == nil {
			total -= f.Size()
			s.evictions.Add(1)
		}
	}
	s.bound = total
}
