package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// Framing, corruption and eviction are tested once for both file formats in
// internal/blobstore; the tests here cover what the result store adds.

// resultPath is where the store keeps key's result.
func resultPath(s *ResultStore, key Key) string {
	return filepath.Join(s.Dir(), key.String()+resultFormat.Ext)
}

func testKey(n int) Key {
	return Spec{Workload: fmt.Sprintf("wl%d", n), Mode: ModeFunctional, Seed: int64(n)}.Key()
}

// fakeResult stands in for the server's RunResult: nested structure,
// numeric fields, slices — enough to catch serialization sloppiness.
type fakeResult struct {
	Workload string   `json:"workload"`
	Cycles   int64    `json:"cycles"`
	Counts   []uint64 `json:"counts"`
	Nested   struct {
		Hits uint64 `json:"hits"`
	} `json:"nested"`
}

func sampleResult(n int) *fakeResult {
	r := &fakeResult{Workload: fmt.Sprintf("wl%d", n), Cycles: int64(1000 * n), Counts: []uint64{1, 2, 3}}
	r.Nested.Hits = uint64(n)
	return r
}

func TestResultStoreRoundTrip(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	key := testKey(1)
	want := sampleResult(1)
	if err := s.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	raw, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a stored result")
	}
	// The stored JSON must be the value's canonical serialization: decoding
	// yields a deep-equal value, and re-marshalling yields identical bytes.
	var got fakeResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("stored payload does not decode: %v", err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	canonical, _ := json.Marshal(want)
	if !bytes.Equal(raw, canonical) {
		t.Fatalf("stored bytes differ from canonical JSON:\n got %s\nwant %s", raw, canonical)
	}
	if st := s.Stats(); st.Puts != 1 || st.Hits != 1 || st.Files != 1 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultStorePutIsIdempotent(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	for i := 0; i < 3; i++ {
		if err := s.Put(key, sampleResult(1)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Puts != 1 || st.Files != 1 {
		t.Fatalf("repeated Put not a no-op: %+v", st)
	}
}

func TestResultStoreMiss(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(404)); ok {
		t.Fatal("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

// TestResultStoreCorruptionDropped: whatever blobstore rejects — truncated,
// bit-flipped, foreign or version-bumped — Get reports as a miss with the
// file deleted and counted; never an error, never stale data.
func TestResultStoreCorruptionDropped(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":      func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":       func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"bad magic":      func(b []byte) []byte { b[0] ^= 1; return b },
		"empty file":     func([]byte) []byte { return nil },
		"future version": func(b []byte) []byte { b[len(resultFormat.Magic)]++; return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := OpenResultStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(7)
			if err := s.Put(key, sampleResult(7)); err != nil {
				t.Fatal(err)
			}
			path := resultPath(s, key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("Get returned a corrupt result")
			}
			if s.Has(key) {
				t.Fatal("corrupt file not deleted")
			}
			if st := s.Stats(); st.Dropped != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("stats = %+v, want 1 dropped, 1 miss", st)
			}
		})
	}
}

// TestResultFixtureV1 pins the on-disk format against a file written before
// the store moved onto internal/blobstore: it still reads back to the same
// raw JSON, and putting the same result produces the same file name and the
// same bytes.
func TestResultFixtureV1(t *testing.T) {
	want, err := os.ReadFile("testdata/v1.res")
	if err != nil {
		t.Fatal(err)
	}
	key := Spec{Workload: "2mm", Mode: ModeTiming, Size: 32, Seed: 1}.Key()
	payload := json.RawMessage(`{"workload":"2mm","mode":"timing","cycles":7855,"warp_insts":20000,"categories":{"deterministic":{"loads":96},"non_deterministic":{"loads":0}}}`)
	name := key.String() + ".res"

	old, _ := OpenResultStore(t.TempDir(), 0)
	if err := os.WriteFile(filepath.Join(old.Dir(), name), want, 0o644); err != nil {
		t.Fatal(err)
	}
	if raw, ok := old.Get(key); !ok || !bytes.Equal(raw, payload) {
		t.Fatalf("Get(fixture) = %s, %v; want %s", raw, ok, payload)
	}

	fresh, _ := OpenResultStore(t.TempDir(), 0)
	if err := fresh.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh.Dir(), name))
	if err != nil {
		t.Fatalf("Put did not produce %s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Put wrote %d bytes that differ from the %d-byte fixture", len(got), len(want))
	}
}

// TestResultStoreConcurrentAccess hammers Put/Get/eviction from many
// goroutines under -race: no data race, no error, and every Get returns
// either a miss or a fully valid payload.
func TestResultStoreConcurrentAccess(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := testKey(i % 10)
				if err := s.Put(k, sampleResult(i%10)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if raw, ok := s.Get(k); ok {
					var got fakeResult
					if err := json.Unmarshal(raw, &got); err != nil {
						t.Errorf("concurrent Get returned invalid JSON: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// The store itself must still be coherent.
	if st := s.Stats(); st.Bytes < 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultStoreIgnoresForeignFiles keeps the scan and eviction away
// from files the store does not own (e.g. the journal living next door).
func TestResultStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "foreign.dat"), make([]byte, 1<<12), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenResultStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), sampleResult(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Files != 1 {
		t.Fatalf("foreign file counted: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "foreign.dat")); err != nil {
		t.Fatal("eviction removed a foreign file")
	}
}
