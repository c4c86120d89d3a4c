package jobs

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"critload/internal/blobstore"
)

// ResultStoreVersion identifies the on-disk result encoding. Results are
// stored as the job result's canonical JSON, so the version only needs to
// move when the framing itself changes; files from a different version
// are treated as absent and deleted.
const ResultStoreVersion = 1

// resultFormat is the result file framing: internal/blobstore's, with no
// header. Nothing is fsynced: a result is a pure function of its spec, so
// one a power loss took reads as absent and recovery re-runs its job.
var resultFormat = blobstore.Format{Magic: "CRITRES\x00", Version: ResultStoreVersion, Ext: ".res"}

// ResultStoreStats is a point-in-time snapshot of store effectiveness
// counters, exported on /metrics under the names in the field tags.
type ResultStoreStats struct {
	Hits      uint64 `json:"hits" metric:"critloadd_resultstore_hits_total,counter" help:"Result reads served from the on-disk store."`
	Misses    uint64 `json:"misses" metric:"critloadd_resultstore_misses_total,counter" help:"Result reads that found nothing on disk."`
	Puts      uint64 `json:"puts" metric:"critloadd_resultstore_puts_total,counter" help:"Results persisted to the on-disk store."`
	PutErrors uint64 `json:"put_errors" metric:"critloadd_resultstore_put_errors_total,counter" help:"Result writes to the on-disk store that failed."`
	Evictions uint64 `json:"evictions" metric:"critloadd_resultstore_evictions_total,counter" help:"Result files evicted to stay under the disk budget."`
	Dropped   uint64 `json:"dropped" metric:"critloadd_resultstore_dropped_total,counter" help:"Corrupt or version-mismatched result files deleted on read."`
	Files     int    `json:"files" metric:"critloadd_resultstore_files,gauge" help:"Result files currently on disk."`
	Bytes     int64  `json:"bytes" metric:"critloadd_resultstore_disk_bytes,gauge" help:"Bytes of result data currently on disk."`
}

// ResultStore is the on-disk, content-addressed half of the result cache:
// a blobstore holding one <spec-key-hex>.res file per completed spec, so
// writes are atomic, every read validates an integrity hash (a crash
// mid-write can never poison a recovered daemon), and files are evicted
// least-recently-used against the byte budget. It is a cache: writes are
// not fsynced, and recovery re-runs a job whose file a crash took. Safe
// for concurrent use by multiple goroutines and processes.
type ResultStore struct {
	blobs                   *blobstore.Store
	hits, misses, putErrors atomic.Uint64
}

// OpenResultStore creates (if needed) and opens a result store directory.
// budgetBytes bounds the on-disk footprint; <= 0 means unlimited.
func OpenResultStore(dir string, budgetBytes int64) (*ResultStore, error) {
	blobs, err := blobstore.Open(dir, budgetBytes, resultFormat)
	if err != nil {
		return nil, fmt.Errorf("jobs: open result store: %w", err)
	}
	return &ResultStore{blobs: blobs}, nil
}

// Dir returns the store directory.
func (s *ResultStore) Dir() string { return s.blobs.Dir() }

// Put writes a result's JSON encoding atomically under key. Results are
// content-addressed — an identical spec produces identical bytes — so
// overwriting an existing file rewrites the same bytes. A failure is
// counted in PutErrors.
func (s *ResultStore) Put(key Key, payload json.RawMessage) error {
	if err := s.blobs.Write(key.String(), nil, payload); err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("jobs: result store put: %w", err)
	}
	return nil
}

// Get returns the stored result's JSON for key, or ok == false when the
// store holds nothing usable (a corrupt or version-mismatched file is
// deleted and reads as absent; no encoding is empty, so neither is a
// result). The bytes are returned as Put was given them.
func (s *ResultStore) Get(key Key) (json.RawMessage, bool) {
	_, payload, err := s.blobs.Read(key.String())
	if err != nil || len(payload) == 0 {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return json.RawMessage(payload), true
}

// Stats returns current counters plus an on-disk scan.
func (s *ResultStore) Stats() ResultStoreStats {
	b := s.blobs.Stats()
	return ResultStoreStats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: b.Writes, PutErrors: s.putErrors.Load(),
		Evictions: b.Evictions, Dropped: b.Dropped, Files: b.Files, Bytes: b.Bytes,
	}
}
