// Package checkpoint serializes full simulator state at kernel-launch
// boundaries and stores the snapshots in an on-disk content-addressed store,
// so sweeps that share a run prefix (ablations, figure reproductions, budget
// scans) resume from the longest checkpointed prefix instead of re-simulating
// from cycle 0.
//
// The codec is deliberately dumb: fixed-width little-endian fields behind a
// sticky-error Writer/Reader pair, with section tags so a layout drift fails
// loudly at the first misaligned field instead of producing silently wrong
// state. Determinism is load-bearing — the store is content-addressed and the
// difftest oracle compares resumed runs byte-for-byte — so every map is
// serialized in sorted key order and nil-versus-empty map distinctions are
// encoded explicitly.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer serializes fields into an in-memory buffer. It never fails: all
// inputs are simulator-owned state, so there is nothing to validate on the
// way out.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Tag writes a section marker; Reader.Tag verifies it, so a component whose
// layout drifted out of sync with its decoder fails at the section boundary.
func (w *Writer) Tag(id uint32) { w.U32(id) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes a platform int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// I32 writes an int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// Blob writes a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// ErrMalformed matches (with errors.Is) every error a Reader reports: a
// truncated payload, a misplaced section tag, an implausible count, or a
// field a decoder rejected with Failf.
var ErrMalformed = errors.New("checkpoint: malformed payload")

// decodeError is a Reader failure: its message names the cause, and it
// matches ErrMalformed.
type decodeError struct{ msg string }

func (e *decodeError) Error() string        { return e.msg }
func (e *decodeError) Is(target error) bool { return target == ErrMalformed }

// Reader decodes a Writer's output with a sticky error: after the first
// failure every accessor returns a zero value and Err reports the cause, so
// decoders read straight through without per-field error plumbing.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf records a decoder-level validation failure (bad counts, geometry
// mismatches); like any codec error it is sticky.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = &decodeError{msg: fmt.Sprintf(format, args...)}
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.Failf("checkpoint: truncated input at offset %d (want %d bytes, have %d)",
			r.off, n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Tag verifies a section marker written by Writer.Tag.
func (r *Reader) Tag(id uint32) {
	at := r.off
	if got := r.U32(); r.err == nil && got != id {
		r.Failf("checkpoint: section tag mismatch at offset %d: got %#x, want %#x", at, got, id)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a platform int.
func (r *Reader) Int() int { return int(r.I64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// Count reads a non-negative element count for a sequence whose elements
// occupy at least minBytes each, rejecting counts the remaining input cannot
// possibly hold — the guard that keeps a corrupt length from turning into a
// huge allocation.
func (r *Reader) Count(minBytes int) int {
	at := r.off
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > r.Remaining()/minBytes {
		r.Failf("checkpoint: implausible count %d at offset %d (%d bytes remain)",
			n, at, r.Remaining())
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte slice. The result is a fresh copy, never
// an alias of the input buffer, so restored state can be mutated even when
// one payload is restored more than once.
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(1)
	b := r.take(n)
	return string(b)
}

// Close verifies the input was fully consumed and returns the sticky error.
func (r *Reader) Close() error {
	if r.err == nil && r.Remaining() != 0 {
		r.Failf("checkpoint: %d trailing bytes after decode", r.Remaining())
	}
	return r.err
}
