package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Version identifies the segment format; segments written by a different
// version are treated as a corruption boundary (replay stops before them),
// never decoded.
const Version = 1

// segMagic opens every segment file. The trailing NUL pads it to eight
// bytes so the version field that follows is aligned.
const segMagic = "CRITWAL\x00"

// segHeaderLen is the segment header: magic + u32 version.
const segHeaderLen = len(segMagic) + 4

// segExt is the segment file suffix.
const segExt = ".wal"

// DefaultSegmentBytes rotates segments at 4 MiB: small enough that
// compaction and replay touch bounded files, large enough that a busy
// daemon rotates rarely.
const DefaultSegmentBytes = 4 << 20

// Options tunes a journal.
type Options struct {
	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// NoSync disables fsync on synced appends. Only tests use it: it
	// trades away the durability the journal exists for.
	NoSync bool
}

// ReplayStats summarises one replay pass.
type ReplayStats struct {
	// Records is the number of valid records delivered.
	Records uint64 `json:"records" metric:"-"`
	// Bytes is the number of valid record bytes consumed.
	Bytes int64 `json:"bytes" metric:"-"`
	// TruncatedBytes counts bytes abandoned after the corruption boundary:
	// the torn tail of the boundary segment plus the full size of every
	// later segment.
	TruncatedBytes int64 `json:"truncated_bytes" metric:"critloadd_journal_replay_truncated_bytes_total,counter" help:"Bytes abandoned past the last replay's corruption boundary."`
	// DroppedSegments counts segments abandoned wholesale (bad header, or
	// after an earlier segment's corruption boundary).
	DroppedSegments int `json:"dropped_segments" metric:"-"`
}

// Stats is a point-in-time snapshot of journal counters. The field tags
// declare each counter's /metrics family (see obsv.Struct); metric:"-"
// marks a value reported on /healthz or to callers only.
type Stats struct {
	Appends       uint64 `metric:"critloadd_journal_appends_total,counter" help:"Records appended to the write-ahead journal."`
	Syncs         uint64 `metric:"critloadd_journal_syncs_total,counter" help:"fsyncs issued by synced journal appends."`
	Rotations     uint64 `metric:"critloadd_journal_rotations_total,counter" help:"Journal segment rotations."`
	Compactions   uint64 `metric:"critloadd_journal_compactions_total,counter" help:"Journal compactions (startup recovery and clean shutdown)."`
	AppendedBytes uint64 `metric:"-"` // record bytes appended this process
	Replay        ReplayStats
	Segments      int   `metric:"critloadd_journal_segments,gauge" help:"Journal segment files currently on disk."`
	DiskBytes     int64 `metric:"critloadd_journal_disk_bytes,gauge" help:"Bytes of journal data currently on disk."`
}

// Journal is the append side of the write-ahead log. It is safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int   // current segment sequence number
	size    int64 // current segment size including header
	scratch []byte
	closed  bool

	appends, syncs, rotations, compactions, appendedBytes uint64
	replay                                                ReplayStats
}

// segPath names segment seq.
func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", seq, segExt))
}

// parseSeq extracts a segment sequence from a file name; ok is false for
// foreign files.
func parseSeq(name string) (int, bool) {
	if !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	seq, err := strconv.Atoi(strings.TrimSuffix(name, segExt))
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// segments lists the directory's segment sequence numbers, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// segmentHeader returns an encoded segment header.
func segmentHeader() []byte {
	h := make([]byte, 0, segHeaderLen)
	h = append(h, segMagic...)
	return binary.LittleEndian.AppendUint32(h, Version)
}

// replaySegment scans one segment's bytes, delivering valid records to fn
// and returning the number of valid bytes (header included). tail is true
// when the segment ended at a corruption boundary rather than cleanly.
func replaySegment(b []byte, fn func(Record) error) (valid int64, n uint64, torn bool, err error) {
	if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic ||
		binary.LittleEndian.Uint32(b[len(segMagic):]) != Version {
		return 0, 0, true, nil
	}
	off := segHeaderLen
	for off < len(b) {
		rec, consumed, ok := decodeFrame(b[off:])
		if !ok {
			return int64(off), n, true, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return int64(off), n, false, err
			}
		}
		off += consumed
		n++
	}
	return int64(off), n, false, nil
}

// Replay reads every valid record in dir, in order, delivering each to fn.
// It stops cleanly at the first invalid byte — a torn tail, a bit flip, a
// foreign segment header — and reports how much it had to abandon; it
// never fails on corruption, only on I/O errors or a non-nil fn error.
// A missing directory replays as empty.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("journal: replay: %w", err)
	}
	boundary := false
	for _, seq := range seqs {
		path := segPath(dir, seq)
		info, err := os.Stat(path)
		if err != nil {
			continue
		}
		if boundary {
			// A corruption boundary in an earlier segment invalidates
			// everything after it: later records may depend on lost ones.
			st.TruncatedBytes += info.Size()
			st.DroppedSegments++
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return st, fmt.Errorf("journal: replay %s: %w", path, err)
		}
		valid, n, torn, err := replaySegment(b, fn)
		if err != nil {
			return st, err
		}
		st.Records += n
		st.Bytes += valid
		if torn {
			boundary = true
			st.TruncatedBytes += int64(len(b)) - valid
			if valid == 0 {
				st.DroppedSegments++
			}
		}
	}
	return st, nil
}

// Open replays dir's records through fn (may be nil), repairs any torn
// tail — truncating the boundary segment at its last valid record and
// deleting every later segment — and returns a journal positioned to
// append after the last valid record. The directory is created if needed.
func Open(dir string, opts Options, fn func(Record) error) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}

	seqs, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	boundary := false
	lastSeq, lastValid := 0, int64(0)
	for _, seq := range seqs {
		path := segPath(dir, seq)
		if boundary {
			if info, err := os.Stat(path); err == nil {
				j.replay.TruncatedBytes += info.Size()
			}
			j.replay.DroppedSegments++
			os.Remove(path)
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
		valid, n, torn, err := replaySegment(b, fn)
		if err != nil {
			return nil, err
		}
		j.replay.Records += n
		j.replay.Bytes += valid
		if torn {
			boundary = true
			j.replay.TruncatedBytes += int64(len(b)) - valid
			if valid == 0 {
				// Not even the header survived; drop the file entirely.
				j.replay.DroppedSegments++
				os.Remove(path)
				continue
			}
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("journal: repairing torn tail of %s: %w", path, err)
			}
		}
		lastSeq, lastValid = seq, valid
	}

	if lastSeq == 0 || lastValid >= opts.SegmentBytes {
		return j, j.rotateLocked(lastSeq + 1)
	}
	f, err := os.OpenFile(segPath(dir, lastSeq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open segment: %w", err)
	}
	j.f, j.w, j.seq, j.size = f, bufio.NewWriter(f), lastSeq, lastValid
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// rotateLocked closes the current segment (if any) and starts segment seq.
func (j *Journal) rotateLocked(seq int) error {
	if j.f != nil {
		if err := j.flushLocked(true); err != nil {
			return err
		}
		j.f.Close()
		j.f = nil
		j.rotations++
	}
	f, err := os.OpenFile(segPath(j.dir, seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(segmentHeader()); err != nil {
		f.Close()
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f, j.w, j.seq, j.size = f, w, seq, int64(segHeaderLen)
	return nil
}

// flushLocked drains the buffered writer and, when sync is requested and
// enabled, fsyncs the segment.
func (j *Journal) flushLocked(sync bool) error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if sync && !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.syncs++
	}
	return nil
}

// Append writes one record. With sync, the record is flushed and fsync'd
// before Append returns — the caller may acknowledge the transition the
// record describes. Without, the record sits in the write buffer until
// the next synced append, rotation or close; a crash may lose it, which
// is acceptable only for records whose loss merely re-does work
// (progress heartbeats, started markers).
func (j *Journal) Append(rec Record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	buf, err := appendFrame(j.scratch[:0], rec)
	if err != nil {
		return err
	}
	j.scratch = buf[:0]
	if j.size+int64(len(buf)) > j.opts.SegmentBytes && j.size > int64(segHeaderLen) {
		if err := j.rotateLocked(j.seq + 1); err != nil {
			return err
		}
	}
	if _, err := j.w.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(buf))
	j.appends++
	j.appendedBytes += uint64(len(buf))
	if sync {
		return j.flushLocked(true)
	}
	return nil
}

// Compact replaces the journal's entire contents with recs: they are
// written to a fresh segment, fsync'd, and only then are all older
// segments removed. Called on clean shutdown (with the retained terminal
// jobs) and after recovery (with the replayed live state), it bounds
// replay work to the state that still matters. On failure the old
// segments are untouched and remain authoritative.
func (j *Journal) Compact(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	old, err := segments(j.dir)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := j.flushLocked(true); err != nil {
		return err
	}
	j.f.Close()
	j.f = nil
	if err := j.rotateLocked(j.seq + 1); err != nil {
		return err
	}
	for _, rec := range recs {
		buf, err := appendFrame(j.scratch[:0], rec)
		if err != nil {
			return err
		}
		j.scratch = buf[:0]
		if _, err := j.w.Write(buf); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		j.size += int64(len(buf))
		j.appendedBytes += uint64(len(buf))
	}
	if err := j.flushLocked(true); err != nil {
		return err
	}
	for _, seq := range old {
		if seq != j.seq {
			os.Remove(segPath(j.dir, seq))
		}
	}
	j.compactions++
	return nil
}

// Close flushes, fsyncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.flushLocked(true)
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Stats snapshots the journal's counters plus an on-disk scan.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	st := Stats{
		Appends: j.appends, Syncs: j.syncs, Rotations: j.rotations,
		Compactions: j.compactions, AppendedBytes: j.appendedBytes,
		Replay: j.replay,
	}
	j.mu.Unlock()
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return st
	}
	for _, e := range entries {
		if _, ok := parseSeq(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st.Segments++
		st.DiskBytes += info.Size()
	}
	return st
}
