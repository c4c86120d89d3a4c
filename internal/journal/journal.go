package journal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
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
	// NoSync disables every fsync (group commits, Compact, Close); synced
	// appends still flush to the file. Only tests use it: it trades away
	// the durability the journal exists for.
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
// concurrent use; appends are serialized internally, and synced appends
// share fsyncs (group commit): one fsync makes durable every record
// written before it, and it runs with the append lock released.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	synced  sync.Cond // on mu; broadcast when an in-flight group commit ends
	f       *os.File
	w       *bufio.Writer
	retired []*os.File // rotated-out segments, flushed but not yet fsync'd
	created bool       // a segment was created since the directory's last fsync
	seq     int        // current segment sequence number
	size    int64      // current segment size including header
	scratch []byte
	closed  bool

	// Group commit state. Every record written takes the next position;
	// every record at or below durable is on disk, and so is the directory
	// entry of the segment holding it. At most one group commit fsyncs at
	// a time (syncing); syncErr is the failure of the last fsync that
	// failed, reported to every record at or below failedThrough, which
	// that fsync was to cover.
	written, durable, failedThrough uint64
	syncing                         bool
	syncErr                         error

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
// and returning the number of valid bytes (header included). torn is true
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

// segmentReport is what walk found in one segment.
type segmentReport struct {
	seq   int
	valid int64 // valid bytes, header included
	torn  bool  // the corruption boundary lies in this segment
	past  bool  // past an earlier segment's boundary: abandoned unread
}

// walk replays dir's segments in order, delivering each valid record to fn,
// up to the first corruption boundary: a later segment's records may depend
// on lost ones, so every segment after it is abandoned unread. It reports
// each segment and tallies the pass; it changes nothing on disk.
func walk(dir string, fn func(Record) error) ([]segmentReport, ReplayStats, error) {
	var st ReplayStats
	seqs, err := segments(dir)
	if err != nil {
		return nil, st, fmt.Errorf("journal: %w", err)
	}
	reps := make([]segmentReport, 0, len(seqs))
	boundary := false
	for _, seq := range seqs {
		path := segPath(dir, seq)
		if boundary {
			if info, err := os.Stat(path); err == nil {
				st.TruncatedBytes += info.Size()
				st.DroppedSegments++
				reps = append(reps, segmentReport{seq: seq, past: true})
			}
			continue
		}
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // gone since the listing
		} else if err != nil {
			return nil, st, fmt.Errorf("journal: read %s: %w", path, err)
		}
		valid, n, torn, err := replaySegment(b, fn)
		if err != nil {
			return nil, st, err
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
		reps = append(reps, segmentReport{seq: seq, valid: valid, torn: torn})
	}
	return reps, st, nil
}

// Replay reads every valid record in dir, in order, delivering each to fn.
// It stops cleanly at the first invalid byte — a torn tail, a bit flip, a
// foreign segment header — and reports how much it had to abandon; it
// never fails on corruption, only on I/O errors or a non-nil fn error.
// A missing directory replays as empty.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	_, st, err := walk(dir, fn)
	if errors.Is(err, fs.ErrNotExist) {
		return ReplayStats{}, nil
	}
	return st, err
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
	j.synced.L = &j.mu

	reps, st, err := walk(dir, fn)
	if err != nil {
		return nil, err
	}
	j.replay = st
	lastSeq, lastValid := 0, int64(0)
	for _, r := range reps {
		path := segPath(dir, r.seq)
		switch {
		case r.past || r.valid == 0: // abandoned, or not even the header survived
			os.Remove(path)
			continue
		case r.torn:
			if err := os.Truncate(path, r.valid); err != nil {
				return nil, fmt.Errorf("journal: repairing torn tail of %s: %w", path, err)
			}
		}
		lastSeq, lastValid = r.seq, r.valid
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

// rotateLocked starts segment seq. The current segment (if any) is
// flushed and retired: the next group commit, Compact or Close fsyncs and
// closes it, and fsyncs the directory that now names the new segment, so a
// rotation never fsyncs inside an append.
func (j *Journal) rotateLocked(seq int) error {
	if j.f != nil {
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("journal: flush: %w", err)
		}
		j.retired = append(j.retired, j.f)
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
	j.created = true
	return nil
}

// writeLocked encodes rec into the write buffer and gives it the next
// position. With rotate, a record that would overflow the current segment
// starts a new one.
func (j *Journal) writeLocked(rec Record, rotate bool) error {
	buf, err := appendFrame(j.scratch[:0], rec)
	if err != nil {
		return err
	}
	j.scratch = buf[:0]
	if rotate && j.size+int64(len(buf)) > j.opts.SegmentBytes && j.size > int64(segHeaderLen) {
		if err := j.rotateLocked(j.seq + 1); err != nil {
			return err
		}
	}
	if _, err := j.w.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(buf))
	j.appendedBytes += uint64(len(buf))
	j.written++
	return nil
}

// fsync makes the retired segments and then cur durable, closing each
// retired one, and then, with created, the directory entries of segments
// created since its last fsync. It touches no journal state, so a group
// commit runs it with mu released.
func (j *Journal) fsync(retired []*os.File, cur *os.File, created bool) error {
	var err error
	for _, f := range retired {
		err = cmp.Or(err, j.syncFile(f))
		f.Close() // read-only from here on: its records are synced or reported failed
	}
	err = cmp.Or(err, j.syncFile(cur))
	if err == nil && created && !j.opts.NoSync {
		if derr := syncDir(j.dir); derr != nil {
			err = fmt.Errorf("journal: fsync directory: %w", derr)
		}
	}
	return err
}

// syncDir fsyncs a directory, making the files created in it durable. It
// is a variable so tests can count directory syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncFile fsyncs f unless the journal runs without fsync.
func (j *Journal) syncFile(f *os.File) error {
	if j.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// settleLocked records the outcome of an fsync that covered every record
// up to target and, with created, the directory. A failed fsync leaves the
// directory to the next one.
func (j *Journal) settleLocked(target uint64, created bool, err error) {
	if err != nil {
		j.syncErr, j.failedThrough = err, target
		j.created = j.created || created
		return
	}
	if !j.opts.NoSync {
		j.syncs++
	}
	j.durable = max(j.durable, target)
}

// syncLocked flushes and fsyncs everything written so far without
// releasing mu, first waiting out any group commit in flight (its retired
// segments are in its hands). Compact and Close use it: they must have
// the old segments on disk before they close or remove them.
func (j *Journal) syncLocked() error {
	for j.syncing {
		j.synced.Wait()
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	retired, created := j.retired, j.created
	j.retired, j.created = nil, false
	err := j.fsync(retired, j.f, created)
	j.settleLocked(j.written, created, err)
	return err
}

// commit blocks until the record at pos is durable. A caller whose record
// an in-flight fsync covers waits for it; otherwise, once no fsync is in
// flight, the caller leads a group commit: it flushes the buffer under mu,
// then fsyncs with mu released, which makes durable every record written
// before the flush, its own and any others.
func (j *Journal) commit(pos uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing && j.durable < pos {
		j.synced.Wait()
	}
	if j.durable >= pos {
		return nil
	}
	if pos <= j.failedThrough {
		return j.syncErr
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	target, retired, cur, created := j.written, j.retired, j.f, j.created
	j.retired, j.created = nil, false
	j.syncing = true
	j.mu.Unlock()
	err := j.fsync(retired, cur, created)
	j.mu.Lock()
	j.syncing = false
	j.synced.Broadcast()
	j.settleLocked(target, created, err)
	return err
}

// write appends rec to the buffer, rotating first when it would overflow
// the segment, and returns its position.
func (j *Journal) write(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: closed")
	}
	if err := j.writeLocked(rec, true); err != nil {
		return 0, err
	}
	j.appends++
	return j.written, nil
}

// Append writes one record. With sync, the record is on disk before
// Append returns — the caller may acknowledge the transition the record
// describes. The fsync is a group commit: concurrent synced appends share
// it, and it runs without the append lock held. Without sync, the record
// sits in the write buffer until the next group commit, Compact or Close;
// a crash may lose it, which is acceptable only for records whose loss
// merely re-does work (started markers, completions).
func (j *Journal) Append(rec Record, sync bool) error {
	pos, err := j.write(rec)
	if err != nil || !sync {
		return err
	}
	return j.commit(pos)
}

// AppendAsync writes one record now and returns commit, which blocks
// until the record is on disk, as Append(rec, true) does. It lets a caller
// append under its own lock and wait for durability after releasing it.
func (j *Journal) AppendAsync(rec Record) (commit func() error, err error) {
	pos, err := j.write(rec)
	if err != nil {
		return nil, err
	}
	return func() error { return j.commit(pos) }, nil
}

// Compact replaces the journal's entire contents with recs: they are
// written to a fresh segment, which is fsync'd along with the directory
// naming it, and only then are all older segments removed. Called on
// clean shutdown (with the retained terminal jobs) and after recovery
// (with the replayed live state), it bounds replay work to the state that
// still matters. On failure the old segments are untouched and remain
// authoritative.
func (j *Journal) Compact(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	// syncLocked may wait out a group commit with mu released, and appends
	// meanwhile may rotate: list the segments to replace only after it.
	if err := j.syncLocked(); err != nil {
		return err
	}
	old, err := segments(j.dir)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f.Close()
	j.f = nil
	if err := j.rotateLocked(j.seq + 1); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := j.writeLocked(rec, false); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	if err := j.syncLocked(); err != nil {
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
	err := j.syncLocked()
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
