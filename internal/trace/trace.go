// Package trace records per-request memory traces from timing runs and
// serializes them as CSV, enabling offline analysis of the kind the paper
// performs for Figures 6 and 7 (per-PC turnaround against request counts)
// without re-running the simulator.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"critload/internal/memreq"
)

// Record is one completed memory request's lifecycle.
type Record struct {
	ID        uint64
	Kernel    string
	PC        uint32
	Block     uint32
	Kind      memreq.Kind
	SM        int
	Partition int
	NonDet    bool
	Lanes     int

	Issued       int64
	AcceptedL1   int64
	InjectedICNT int64
	ArrivedL2    int64
	DoneL2       int64
	Returned     int64
	Serviced     memreq.Level
}

// FromRequest snapshots a finished request.
func FromRequest(r *memreq.Request) Record {
	return Record{
		ID: r.ID, Kernel: r.Kernel, PC: r.PC, Block: r.Block, Kind: r.Kind,
		SM: r.SM, Partition: r.Partition, NonDet: r.NonDet, Lanes: r.Lanes,
		Issued: r.Issued, AcceptedL1: r.AcceptedL1, InjectedICNT: r.InjectedICNT,
		ArrivedL2: r.ArrivedL2, DoneL2: r.DoneL2, Returned: r.Returned,
		Serviced: r.Serviced,
	}
}

// Latency returns the request's end-to-end latency, or 0 when it never
// completed (stores, truncated windows).
func (r Record) Latency() int64 {
	if r.Returned == 0 || r.Returned < r.Issued {
		return 0
	}
	return r.Returned - r.Issued
}

// Buffer accumulates records up to a capacity; recording beyond it drops
// the new records and counts them, so traces stay bounded on long runs.
type Buffer struct {
	cap     int
	records []Record
	dropped uint64
}

// NewBuffer builds a buffer holding at most capacity records.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Buffer{cap: capacity}
}

// Add records one request.
func (b *Buffer) Add(r *memreq.Request) {
	if len(b.records) >= b.cap {
		b.dropped++
		return
	}
	b.records = append(b.records, FromRequest(r))
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int { return len(b.records) }

// Dropped returns how many records did not fit.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Records returns the buffered records (shared slice; do not mutate).
func (b *Buffer) Records() []Record { return b.records }

// csvHeader lists the CSV columns in order: WriteCSV prints them, ReadCSV
// requires them. The trailing latency column is derived (Record.Latency) and
// is not read back.
const csvHeader = "id,kernel,pc,block,kind,sm,partition,nondet,lanes,issued,accepted_l1,injected_icnt,arrived_l2,done_l2,returned,serviced,latency"

// WriteCSV serializes the buffered records.
func (b *Buffer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, r := range b.records {
		nd := 0
		if r.NonDet {
			nd = 1
		}
		_, err := fmt.Fprintf(w, "%d,%s,0x%x,0x%x,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d\n",
			r.ID, r.Kernel, r.PC, r.Block, r.Kind, r.SM, r.Partition, nd, r.Lanes,
			r.Issued, r.AcceptedL1, r.InjectedICNT, r.ArrivedL2, r.DoneL2,
			r.Returned, r.Serviced, r.Latency())
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses what WriteCSV wrote. Errors name the offending line.
func ReadCSV(r io.Reader) ([]Record, error) {
	cols := strings.Split(csvHeader, ",")
	var (
		out  []Record
		f    []string // the current line's fields
		line int
		bad  error // first field of the line that did not parse
	)
	num := func(i, base, bits int) uint64 {
		s := f[i]
		if base == 16 {
			s = strings.TrimPrefix(s, "0x")
		}
		v, err := strconv.ParseUint(s, base, bits)
		if err != nil && bad == nil {
			bad = fmt.Errorf("trace: line %d: bad %s: %v", line, cols[i], err)
		}
		return v
	}
	// enum finds which of n consecutive values prints as field i.
	enum := func(i, n int, name func(v uint8) string) uint8 {
		for v := uint8(0); int(v) < n; v++ {
			if name(v) == f[i] {
				return v
			}
		}
		if bad == nil {
			bad = fmt.Errorf("trace: line %d: bad %s %q", line, cols[i], f[i])
		}
		return 0
	}
	sc := bufio.NewScanner(r)
	for line = 1; sc.Scan(); line++ {
		f = strings.Split(sc.Text(), ",")
		if line == 1 {
			for i, c := range cols {
				if i >= len(f) || f[i] != c {
					return nil, fmt.Errorf("trace: line 1: missing column %q", c)
				}
			}
			continue
		}
		if len(f) < len(cols) {
			return nil, fmt.Errorf("trace: line %d: %d fields, want %d", line, len(f), len(cols))
		}
		// Field order is WriteCSV's.
		rec := Record{
			ID: num(0, 10, 64), Kernel: f[1], PC: uint32(num(2, 16, 32)), Block: uint32(num(3, 16, 32)),
			Kind: memreq.Kind(enum(4, int(memreq.Atomic)+1, func(v uint8) string { return memreq.Kind(v).String() })),
			SM:   int(num(5, 10, 31)), Partition: int(num(6, 10, 31)), NonDet: num(7, 10, 1) == 1, Lanes: int(num(8, 10, 31)),
			Issued: int64(num(9, 10, 63)), AcceptedL1: int64(num(10, 10, 63)), InjectedICNT: int64(num(11, 10, 63)),
			ArrivedL2: int64(num(12, 10, 63)), DoneL2: int64(num(13, 10, 63)), Returned: int64(num(14, 10, 63)),
			Serviced: memreq.Level(enum(15, int(memreq.LvlDRAM)+1, func(v uint8) string { return memreq.Level(v).String() })),
		}
		if bad != nil {
			return nil, bad
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// PCSummary aggregates one PC's trace records.
type PCSummary struct {
	Kernel      string
	PC          uint32
	NonDet      bool
	Requests    int
	MeanLatency float64
	MaxLatency  int64
}

// SummarizeByPC groups records per static load, ordered by (kernel, PC).
func SummarizeByPC(records []Record) []PCSummary {
	type key struct {
		kernel string
		pc     uint32
	}
	agg := map[key]*PCSummary{}
	for _, r := range records {
		k := key{r.Kernel, r.PC}
		s := agg[k]
		if s == nil {
			s = &PCSummary{Kernel: r.Kernel, PC: r.PC, NonDet: r.NonDet}
			agg[k] = s
		}
		s.Requests++
		lat := r.Latency()
		s.MeanLatency += float64(lat)
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
	}
	out := make([]PCSummary, 0, len(agg))
	for _, s := range agg {
		s.MeanLatency /= float64(s.Requests)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].PC < out[j].PC
	})
	return out
}
