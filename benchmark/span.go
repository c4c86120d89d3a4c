package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the span that caused it
// (0 = none); spans of one op share its Op number (0 = outside any op, as
// the layer probes are).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for the two
// client goroutines of a service workload to share.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in ns: its duration minus the part
// of that interval its direct children cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanIndex is a finished run's spans with their self times computed once.
type spanIndex struct {
	spans []span
	self  map[int]int64
}

func indexSpans(spans []span) spanIndex { return spanIndex{spans: spans, self: selfTimes(spans)} }

// perOp sums, for every op, the self time of its spans called name, and
// returns one total per op (in ms) for ops that have such a span. Op 0 —
// spans outside any op, as the probes are — is skipped.
func (x spanIndex) perOp(name string) []float64 {
	byOp := map[int]int64{}
	for _, s := range x.spans {
		if s.Name == name && s.Op != 0 {
			byOp[s.Op] += x.self[s.ID]
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = float64(byOp[op]) / 1e6
	}
	return out
}

// durations returns the full duration (in ms) of every span called name, in
// or out of an op: the sample a probe's median is taken over.
func (x spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range x.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// countPerOp is the median number of spans called name per op.
func (x spanIndex) countPerOp(name string) float64 {
	byOp := map[int]float64{}
	for _, s := range x.spans {
		if s.Name == name && s.Op != 0 {
			byOp[s.Op]++
		}
	}
	counts := make([]float64, 0, len(byOp))
	for _, n := range byOp {
		counts = append(counts, n)
	}
	return median(counts)
}
