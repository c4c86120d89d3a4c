package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// formats are the two framings in production, restated here so the tests
// run once over both; the fixture tests in internal/checkpoint and
// internal/jobs pin the wrappers' own Format values to the same bytes.
var formats = map[string]Format{
	"ckpt": {Magic: "CRITCKPT", Version: 1, Ext: ".ckpt", HeaderLen: 32},
	"res":  {Magic: "CRITRES\x00", Version: 1, Ext: ".res"},
}

// eachFormat runs fn as a subtest per format over a fresh store.
func eachFormat(t *testing.T, budget int64, fn func(t *testing.T, s *Store, header []byte)) {
	t.Helper()
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir(), budget, f)
			if err != nil {
				t.Fatal(err)
			}
			header := make([]byte, f.HeaderLen)
			for i := range header {
				header[i] = byte(i + 1)
			}
			fn(t, s, header)
		})
	}
}

// reseal recomputes a framed file's trailing hash after a field was edited,
// simulating an intact file written by different code.
func reseal(b []byte) []byte {
	sum := sha256.Sum256(b[:len(b)-sha256.Size])
	copy(b[len(b)-sha256.Size:], sum[:])
	return b
}

// setMtime backdates (or postdates) a file so LRU order is unambiguous on
// filesystems with coarse timestamps.
func setMtime(t *testing.T, path string, age time.Duration) {
	t.Helper()
	at := time.Now().Add(-age)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eachFormat(t, 0, func(t *testing.T, s *Store, header []byte) {
		for name, payload := range map[string][]byte{"a": []byte("payload bytes"), "empty": nil} {
			if s.Has(name) {
				t.Fatalf("Has(%q) = true before Write", name)
			}
			if err := s.Write(name, header, payload); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if !s.Has(name) {
				t.Fatalf("Has(%q) = false after Write", name)
			}
			h, p, err := s.Read(name)
			if err != nil || !bytes.Equal(h, header) || !bytes.Equal(p, payload) {
				t.Fatalf("Read(%q) = %x %q %v, want %x %q", name, h, p, err, header, payload)
			}
		}
		if _, _, err := s.Read("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Read(absent) = %v, want ErrNotFound", err)
		}
		// Nothing but the two blobs is left behind: no temp file survives
		// a successful write, and a miss drops nothing.
		entries, err := os.ReadDir(s.Dir())
		if err != nil || len(entries) != 2 {
			t.Fatalf("directory holds %d entries (%v), want the 2 blobs", len(entries), err)
		}
		if st := s.Stats(); st.Writes != 2 || st.Files != 2 || st.Bytes == 0 || st.Dropped != 0 {
			t.Fatalf("stats = %+v", st)
		}
		if got := s.Names(); len(got) != 2 {
			t.Fatalf("Names = %q, want both blobs", got)
		}
	})
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 0, formats["res"]); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestReadDropsInvalidFiles is the corruption matrix for both formats: every
// damaged or foreign file is reported with the right sentinel, deleted so it
// is never retried, and counted — never returned, never a panic.
func TestReadDropsInvalidFiles(t *testing.T) {
	versionAt := func(f Format) int { return len(f.Magic) }
	lengthAt := func(f Format) int { return len(f.Magic) + 4 + f.HeaderLen }
	cases := []struct {
		name    string
		corrupt func(f Format, b []byte) []byte
		want    error
	}{
		{"truncated", func(_ Format, b []byte) []byte { return b[:len(b)/2] }, ErrCorrupt},
		{"header only", func(f Format, b []byte) []byte { return b[:lengthAt(f)+8] }, ErrCorrupt},
		{"empty file", func(Format, []byte) []byte { return nil }, ErrCorrupt},
		{"bad magic", func(_ Format, b []byte) []byte { b[0] ^= 1; return b }, ErrCorrupt},
		{"payload bit flip", func(_ Format, b []byte) []byte { b[len(b)-sha256.Size-1] ^= 0xFF; return b }, ErrCorrupt},
		{"hash bit flip", func(_ Format, b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt},
		// An unsealed version bump is damage; a resealed one is an intact
		// file from different code.
		{"version bit flip", func(f Format, b []byte) []byte { b[versionAt(f)]++; return b }, ErrCorrupt},
		{"future version", func(f Format, b []byte) []byte { b[versionAt(f)]++; return reseal(b) }, ErrVersion},
		{"length field lies", func(f Format, b []byte) []byte {
			binary.LittleEndian.PutUint64(b[lengthAt(f):], 1<<40)
			return reseal(b)
		}, ErrCorrupt},
		{"trailing bytes", func(_ Format, b []byte) []byte { return reseal(append(b, make([]byte, 8)...)) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachFormat(t, 0, func(t *testing.T, s *Store, header []byte) {
				if err := s.Write("victim", header, []byte("a payload long enough to damage")); err != nil {
					t.Fatal(err)
				}
				path := s.path("victim")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.corrupt(s.format, b), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Read("victim"); !errors.Is(err, tc.want) {
					t.Fatalf("Read = %v, want %v", err, tc.want)
				}
				if s.Has("victim") {
					t.Fatal("invalid file survived Read")
				}
				if st := s.Stats(); st.Dropped != 1 || st.Files != 0 {
					t.Fatalf("stats = %+v, want 1 dropped, 0 files", st)
				}
			})
		})
	}
}

func TestDropDeletesAndCounts(t *testing.T) {
	eachFormat(t, 0, func(t *testing.T, s *Store, header []byte) {
		if err := s.Write("x", header, []byte("p")); err != nil {
			t.Fatal(err)
		}
		s.Drop("x")
		if s.Has("x") || s.Stats().Dropped != 1 {
			t.Fatalf("after Drop: Has=%v stats=%+v", s.Has("x"), s.Stats())
		}
	})
}

// blobSize is the on-disk size of a blob with a 1 KiB payload.
func blobSize(f Format) int64 {
	return int64(len(f.Encode(make([]byte, f.HeaderLen), make([]byte, 1024))))
}

// TestEvictsLRUOverBudget fills a store past its byte budget: the least
// recently used blobs go, a blob refreshed by Read outlives older writes,
// and the just-written blob always survives.
func TestEvictsLRUOverBudget(t *testing.T) {
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			budget := 3*blobSize(f) + blobSize(f)/2 // room for three blobs
			s, err := Open(t.TempDir(), budget, f)
			if err != nil {
				t.Fatal(err)
			}
			header, payload := make([]byte, f.HeaderLen), make([]byte, 1024)
			for i := 0; i < 3; i++ {
				if err := s.Write(fmt.Sprint("b", i), header, payload); err != nil {
					t.Fatal(err)
				}
				setMtime(t, s.path(fmt.Sprint("b", i)), time.Duration(10-i)*time.Hour)
			}
			if st := s.Stats(); st.Evictions != 0 || st.Files != 3 {
				t.Fatalf("evicted under budget: %+v", st)
			}
			// Reading b0 makes it the most recently used of the three.
			if _, _, err := s.Read("b0"); err != nil {
				t.Fatal(err)
			}
			for i := 3; i < 5; i++ {
				if err := s.Write(fmt.Sprint("b", i), header, payload); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats()
			if st.Evictions != 2 || st.Files != 3 || st.Bytes > budget {
				t.Fatalf("stats = %+v, want 2 evictions leaving 3 files within %d bytes", st, budget)
			}
			for blob, want := range map[string]bool{"b0": true, "b1": false, "b2": false, "b3": true, "b4": true} {
				if s.Has(blob) != want {
					t.Errorf("Has(%s) = %v, want %v", blob, !want, want)
				}
			}
		})
	}
}

// TestEvictionHysteresis: a write past the budget evicts down to the
// low-water mark, 7/8 of the budget, so the writes that fit in the space
// it freed evict nothing; the next write past the budget runs a pass again.
func TestEvictionHysteresis(t *testing.T) {
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			budget := 8 * blobSize(f) // low-water mark: exactly 7 blobs
			s, err := Open(t.TempDir(), budget, f)
			if err != nil {
				t.Fatal(err)
			}
			header, payload := make([]byte, f.HeaderLen), make([]byte, 1024)
			write := func(i int) {
				t.Helper()
				if err := s.Write(fmt.Sprint("b", i), header, payload); err != nil {
					t.Fatal(err)
				}
				setMtime(t, s.path(fmt.Sprint("b", i)), time.Duration(100-i)*time.Hour)
			}
			for i := 0; i < 9; i++ {
				write(i)
			}
			st := s.Stats()
			if st.Evictions != 2 || st.Bytes > budget-budget/8 || s.Has("b0") || s.Has("b1") {
				t.Fatalf("after the first pass: stats = %+v, want b0 and b1 evicted and at most %d bytes", st, budget-budget/8)
			}
			write(9) // fits under the budget: no pass
			if st := s.Stats(); st.Evictions != 2 || st.Files != 8 {
				t.Fatalf("a write under the budget evicted: %+v", st)
			}
			write(10) // past the budget again
			if st := s.Stats(); st.Evictions != 4 || st.Files != 7 || s.Has("b2") || s.Has("b3") {
				t.Fatalf("second pass: stats = %+v, want b2 and b3 evicted, 7 files left", st)
			}
		})
	}
}

// TestOpenAccountsExistingFiles: a store reopened over a populated
// directory counts the blobs already there, so its first write past the
// budget evicts the least recently used file by mtime, not by name or
// write order.
func TestOpenAccountsExistingFiles(t *testing.T) {
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first, err := Open(dir, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			header, payload := make([]byte, f.HeaderLen), make([]byte, 1024)
			for i, age := range []time.Duration{3, 1, 4, 2} {
				if err := first.Write(fmt.Sprint("b", i), header, payload); err != nil {
					t.Fatal(err)
				}
				setMtime(t, first.path(fmt.Sprint("b", i)), age*time.Hour)
			}
			// Four blobs fit; a fifth does not, and evicting one is enough
			// to reach the low-water mark.
			s, err := Open(dir, 5*blobSize(f)-1, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write("b4", header, payload); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Evictions != 1 || st.Files != 4 || s.Has("b2") {
				t.Fatalf("stats = %+v, Has(b2) = %v; want the oldest blob, b2, evicted", st, s.Has("b2"))
			}
		})
	}
}

// TestBudgetSmallerThanOneBlob: the just-written blob is never evicted, even
// when it alone exceeds the budget.
func TestBudgetSmallerThanOneBlob(t *testing.T) {
	eachFormat(t, 1, func(t *testing.T, s *Store, header []byte) {
		for _, name := range []string{"first", "second"} {
			if err := s.Write(name, header, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if !s.Has(name) {
				t.Fatalf("just-written %s evicted", name)
			}
		}
		if s.Has("first") {
			t.Fatal("older blob survived a 1-byte budget")
		}
	})
}

// TestCrashOrphansAgeOutUnderBudget: a temp file left by a crash between
// CreateTemp and Rename is store-owned — counted toward the budget and,
// being the oldest file, evicted first — while a foreign file in the same
// directory is neither counted nor touched.
func TestCrashOrphansAgeOutUnderBudget(t *testing.T) {
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			orphan := filepath.Join(dir, "tmp-123456789"+f.Ext+partialExt)
			foreign := filepath.Join(dir, "foreign.dat")
			for _, p := range []string{orphan, foreign} {
				if err := os.WriteFile(p, make([]byte, 2048), 0o644); err != nil {
					t.Fatal(err)
				}
				setMtime(t, p, 24*time.Hour)
			}
			// Room for the orphan and one blob, or for two blobs — not for
			// all three files.
			s, err := Open(dir, 2048+blobSize(f)+blobSize(f)/2, f)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Files != 1 || st.Bytes != 2048 {
				t.Fatalf("stats before any write = %+v, want the orphan alone counted", st)
			}
			header, payload := make([]byte, f.HeaderLen), make([]byte, 1024)
			if err := s.Write("b0", header, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(orphan); err != nil {
				t.Fatal("orphan evicted while the store was within budget")
			}
			if err := s.Write("b1", header, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(orphan); !os.IsNotExist(err) {
				t.Fatalf("orphan survived a write past the budget (stat: %v)", err)
			}
			if st := s.Stats(); st.Evictions != 1 || st.Files != 2 || !s.Has("b0") || !s.Has("b1") {
				t.Fatalf("stats = %+v; the orphan alone should have been evicted", st)
			}
			if info, err := os.Stat(foreign); err != nil || info.Size() != 2048 {
				t.Fatalf("foreign file touched: %v", err)
			}
		})
	}
}

// TestConcurrentAccess hammers Write/Read/eviction/Stats from many
// goroutines under -race: no error, and every Read is a miss or fully valid.
func TestConcurrentAccess(t *testing.T) {
	eachFormat(t, 4096, func(t *testing.T, s *Store, header []byte) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					name, payload := fmt.Sprint("k", i%10), []byte(fmt.Sprint("payload-", i%10))
					if err := s.Write(name, header, payload); err != nil {
						t.Errorf("Write: %v", err)
						return
					}
					if _, p, err := s.Read(name); err == nil && !bytes.Equal(p, payload) {
						t.Errorf("Read(%s) = %q, want %q", name, p, payload)
						return
					}
					_ = s.Stats()
				}
			}()
		}
		wg.Wait()
		if st := s.Stats(); st.Bytes > s.budget {
			t.Fatalf("store holds %d bytes after the writers joined, budget %d", st.Bytes, s.budget)
		}
	})
}

// BenchmarkWrite times one Write into a store already holding files blobs
// of 1.5 KiB under a 1 GiB budget: the put path when the store is far from
// full. Each write replaces one of the files, so the count holds.
func BenchmarkWrite(b *testing.B) {
	f := formats["ckpt"]
	header, payload := make([]byte, f.HeaderLen), make([]byte, 1536)
	blob := f.Encode(header, payload)
	for _, files := range []int{100, 5000} {
		b.Run(fmt.Sprint("files=", files), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < files; i++ {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprint("b", i)+f.Ext), blob, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			s, err := Open(dir, 1<<30, f)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Write(fmt.Sprint("b", i%files), header, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzBlobDecode feeds arbitrary bytes to both formats' decoders: the result
// is a sentinel error, or a header and payload that alias the input (so no
// length field can drive an allocation) and re-encode to exactly the input.
func FuzzBlobDecode(f *testing.F) {
	for _, fixture := range []string{"../checkpoint/testdata/v1.ckpt", "../jobs/testdata/v1.res"} {
		b, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, format := range formats {
			header, payload, err := format.Decode(b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
					t.Fatalf("%s: Decode error %v is not a sentinel", name, err)
				}
				continue
			}
			if len(payload) > 0 && &payload[0] != &b[len(b)-sha256.Size-len(payload)] {
				t.Fatalf("%s: payload does not alias the input", name)
			}
			if again := format.Encode(header, payload); !bytes.Equal(again, b) {
				t.Fatalf("%s: re-encoding differs from the accepted input", name)
			}
		}
	})
}
