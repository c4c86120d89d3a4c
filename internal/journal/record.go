// Package journal is an append-only, fsync'd write-ahead log of job
// lifecycle records. The jobs manager appends one record per state
// transition (submitted, started, completed, cancelled, failed) and
// replays the log on startup to rebuild its queue after a crash; completed
// results themselves live in the content-addressed result store, so the
// journal stays small and compacts to the set of retained terminal jobs on
// clean shutdown.
//
// On-disk layout: a directory of numbered segment files
// (00000001.wal, 00000002.wal, ...), each opening with an 12-byte
// header (magic "CRITWAL\x00" + codec version) followed by
// length+CRC32C-framed records:
//
//	[u32 body length][u32 CRC32C(body)][body]
//	body = [u8 type][i64 unix-nano timestamp][u16 id length][id][data]
//
// A torn or bit-flipped record invalidates everything from its offset
// on: replay stops cleanly at the last valid record and Open truncates
// the tail (and discards any later segments) before appending again, so
// a half-written record can never be resurrected.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// Type tags one lifecycle record.
type Type uint8

// Record types, one per job state transition. Submitted carries the spec
// (JSON) in Data; Failed carries the error text; the rest need no payload.
// Progressed is a cycles/warp-insts heartbeat that is no longer written;
// it stays decodable so older journals replay.
const (
	TypeSubmitted Type = iota + 1
	TypeStarted
	TypeProgressed
	TypeCompleted
	TypeCancelled
	TypeFailed
)

// typeNames maps record types to their wire-stable names (used in tests
// and debug output, never on disk).
var typeNames = map[Type]string{
	TypeSubmitted:  "submitted",
	TypeStarted:    "started",
	TypeProgressed: "progressed",
	TypeCompleted:  "completed",
	TypeCancelled:  "cancelled",
	TypeFailed:     "failed",
}

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("journal.Type(%d)", uint8(t))
}

// valid reports whether t is a known record type; unknown types make the
// whole record (and everything after it) invalid, exactly like a CRC
// mismatch, because a foreign type's payload semantics are unknowable.
func (t Type) valid() bool { return t >= TypeSubmitted && t <= TypeFailed }

// Record is one framed journal entry.
type Record struct {
	// Type tags the lifecycle transition.
	Type Type
	// At is the transition's wall-clock time; replay restores it onto the
	// recovered job so created/started/finished timestamps survive a crash.
	At time.Time
	// ID is the job id the record belongs to.
	ID string
	// Data is the type-specific payload (may be empty).
	Data []byte
}

// MaxRecordBytes bounds one record's encoded body. Specs are a few
// hundred bytes of JSON; anything near this limit in a file is corruption,
// and bounding it keeps a bit-flipped length field from asking the
// decoder to allocate gigabytes.
const MaxRecordBytes = 1 << 20

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the daemon deploys to.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-record framing cost: length + CRC.
const frameOverhead = 4 + 4

// bodyHeader is the fixed prefix of a record body: type, timestamp, id
// length.
const bodyHeader = 1 + 8 + 2

// appendFrame encodes rec as one frame onto buf.
func appendFrame(buf []byte, rec Record) ([]byte, error) {
	if !rec.Type.valid() {
		return buf, fmt.Errorf("journal: cannot encode unknown record type %d", rec.Type)
	}
	if len(rec.ID) > 0xffff {
		return buf, fmt.Errorf("journal: id %d bytes exceeds the 64 KiB field", len(rec.ID))
	}
	bodyLen := bodyHeader + len(rec.ID) + len(rec.Data)
	if bodyLen > MaxRecordBytes {
		return buf, fmt.Errorf("journal: record body %d bytes exceeds MaxRecordBytes", bodyLen)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	bodyAt := len(buf)
	buf = append(buf, byte(rec.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.At.UnixNano()))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.ID)))
	buf = append(buf, rec.ID...)
	buf = append(buf, rec.Data...)
	crc := crc32.Checksum(buf[bodyAt:], crcTable)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf, nil
}

// decodeFrame decodes the frame at the head of b, returning the record
// and the number of bytes consumed. ok is false for anything invalid —
// a short frame, an oversized or undersized length, a CRC mismatch, an
// unknown type — in which case the caller must treat b's entire
// remainder as a torn tail.
func decodeFrame(b []byte) (rec Record, n int, ok bool) {
	if len(b) < frameOverhead {
		return Record{}, 0, false
	}
	bodyLen := int(binary.LittleEndian.Uint32(b))
	if bodyLen < bodyHeader || bodyLen > MaxRecordBytes || len(b) < frameOverhead+bodyLen {
		return Record{}, 0, false
	}
	want := binary.LittleEndian.Uint32(b[4:])
	body := b[frameOverhead : frameOverhead+bodyLen]
	if crc32.Checksum(body, crcTable) != want {
		return Record{}, 0, false
	}
	rec.Type = Type(body[0])
	if !rec.Type.valid() {
		return Record{}, 0, false
	}
	rec.At = time.Unix(0, int64(binary.LittleEndian.Uint64(body[1:])))
	idLen := int(binary.LittleEndian.Uint16(body[9:]))
	if bodyHeader+idLen > bodyLen {
		return Record{}, 0, false
	}
	rec.ID = string(body[bodyHeader : bodyHeader+idLen])
	if data := body[bodyHeader+idLen:]; len(data) > 0 {
		rec.Data = append([]byte(nil), data...)
	}
	return rec, frameOverhead + bodyLen, true
}
