package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"critload/internal/blobstore"
)

// Framing, corruption and eviction are tested once for both file formats in
// internal/blobstore; the tests here cover what the checkpoint wrapper adds.

// filePath is where the store keeps (key, index).
func filePath(s *Store, key Key, index int) string {
	return filepath.Join(s.Dir(), blobName(key, index)+format.Ext)
}

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("workload=2mm size=32 seed=7"))
	meta := Meta{Index: 3, Cycle: 12345, SkippedCycles: 1000, WarpInsts: 678}
	payload := []byte("snapshot-bytes")
	if err := s.Save(key, meta, payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key, 3) {
		t.Fatal("Has(3) = false after Save")
	}
	if s.Has(key, 2) {
		t.Fatal("Has(2) = true without a save")
	}
	m, p, err := s.Load(key, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m != meta || !bytes.Equal(p, payload) {
		t.Fatalf("Load = %+v %q, want %+v %q", m, p, meta, payload)
	}
	if _, _, err := s.Load(key, 9); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Load(9) = %v, want ErrNotFound", err)
	}
}

func TestStoreRejectsIndexZero(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	if err := s.Save(testKey(1), Meta{Index: 0}, nil); err == nil {
		t.Fatal("Save(index 0) succeeded; the initial state must never be stored")
	}
}

func TestStoreBestPicksDeepestValid(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(2)
	for i, m := range []Meta{
		{Index: 1, Cycle: 100, WarpInsts: 10},
		{Index: 2, Cycle: 200, WarpInsts: 20},
		{Index: 3, Cycle: 300, WarpInsts: 30},
	} {
		if err := s.Save(key, m, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Unlimited budgets: deepest wins.
	m, _, ok := s.Best(key, 0, 0)
	if !ok || m.Index != 3 {
		t.Fatalf("Best(0,0) = %+v ok=%v, want index 3", m, ok)
	}
	// A warp-instruction budget of 25 invalidates index 3 (30 ≥ 25) but not 2.
	m, _, ok = s.Best(key, 25, 0)
	if !ok || m.Index != 2 {
		t.Fatalf("Best(25,0) = %+v ok=%v, want index 2", m, ok)
	}
	// Budget equal to a boundary's count invalidates that boundary (strict <).
	m, _, ok = s.Best(key, 20, 0)
	if !ok || m.Index != 1 {
		t.Fatalf("Best(20,0) = %+v ok=%v, want index 1", m, ok)
	}
	// A cycle limit below every boundary: cold start.
	if _, _, ok := s.Best(key, 0, 50); ok {
		t.Fatal("Best with tiny cycle limit returned a checkpoint")
	}
	// A different key: cold start.
	if _, _, ok := s.Best(testKey(3), 0, 0); ok {
		t.Fatal("Best under a foreign key returned a checkpoint")
	}
	st := s.Stats()
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 3 hits / 2 misses", st)
	}
}

// corruptFile flips one byte inside the payload region of a stored file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-40] ^= 0xFF // inside payload (ahead of the 32-byte hash)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDropsCorruptFilesAndFallsBack(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(4)
	good := []byte("good-payload-good-payload-good-payload")
	bad := []byte("bad-payload-bad-payload-bad-payload-bad")
	if err := s.Save(key, Meta{Index: 1, Cycle: 10}, good); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(key, Meta{Index: 2, Cycle: 20}, bad); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filePath(s, key, 2))

	// Best must skip the corrupt deepest file and land on index 1.
	m, p, ok := s.Best(key, 0, 0)
	if !ok || m.Index != 1 || !bytes.Equal(p, good) {
		t.Fatalf("Best over corrupt store = %+v ok=%v", m, ok)
	}
	// The corrupt file was deleted, not left to poison future loads.
	if s.Has(key, 2) {
		t.Fatal("corrupt file survived Best")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestStoreDropsVersionMismatch: an intact file sealed under another Version
// (the snapshot layout changed) is a cold start, not a decode attempt.
func TestStoreDropsVersionMismatch(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(6)
	future := format
	future.Version = Version + 1
	sealed := future.Encode(Meta{Index: 1, Cycle: 10}.encode(), []byte("payload"))
	if err := os.WriteFile(filePath(s, key, 1), sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(key, 1); !errors.Is(err, blobstore.ErrVersion) {
		t.Fatalf("Load future-version = %v, want ErrVersion", err)
	}
	if s.Has(key, 1) {
		t.Fatal("version-mismatched file survived Load")
	}
}

// TestStoreDropsIndexMismatch: a valid file whose Meta names another
// boundary than its file name (a copied or renamed file) would resume a run
// from the wrong launch; it is dropped as corrupt.
func TestStoreDropsIndexMismatch(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(8)
	if err := s.Save(key, Meta{Index: 1, Cycle: 10}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filePath(s, key, 1), filePath(s, key, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(key, 2); !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Load of a misnamed file = %v, want ErrCorrupt", err)
	}
	if s.Has(key, 2) {
		t.Fatal("misnamed file survived Load")
	}
	if _, _, ok := s.Best(key, 0, 0); ok {
		t.Fatal("Best returned a checkpoint from an empty store")
	}
	if st := s.Stats(); st.Dropped != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 dropped, 1 miss", st)
	}
}

// TestFixtureV1 pins the on-disk format against a file written before the
// store moved onto internal/blobstore: it still loads, and saving the same
// content produces the same file name and the same bytes.
func TestFixtureV1(t *testing.T) {
	want, err := os.ReadFile("testdata/v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("fixture: workload=2mm size=32 seed=1"))
	meta := Meta{Index: 2, Cycle: 12345, SkippedCycles: 678, WarpInsts: 91011}
	payload := []byte("critload checkpoint fixture payload, format version 1: the device snapshot bytes would go here, opaque to the store")
	name := key.String() + ".k000002.ckpt"

	old, _ := Open(t.TempDir(), 0)
	if err := os.WriteFile(filepath.Join(old.Dir(), name), want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, p, err := old.Load(key, 2)
	if err != nil || m != meta || !bytes.Equal(p, payload) {
		t.Fatalf("Load(fixture) = %+v %q %v, want %+v %q", m, p, err, meta, payload)
	}

	fresh, _ := Open(t.TempDir(), 0)
	if err := fresh.Save(key, meta, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh.Dir(), name))
	if err != nil {
		t.Fatalf("Save did not produce %s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Save wrote %d bytes that differ from the %d-byte fixture", len(got), len(want))
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir(), 64*1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := testKey(byte(g % 3))
			for i := 1; i <= 20; i++ {
				m := Meta{Index: i, Cycle: int64(100 * i), WarpInsts: uint64(10 * i)}
				if err := s.Save(key, m, []byte(fmt.Sprintf("payload-%d-%d", g, i))); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				if m, _, ok := s.Best(key, 0, 0); ok && m.Index < 1 {
					t.Errorf("Best returned index %d", m.Index)
					return
				}
				s.NoteWarmStart(int64(i))
				_ = s.Stats()
			}
		}(g)
	}
	wg.Wait()
}
