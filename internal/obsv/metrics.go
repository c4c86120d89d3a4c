// Package obsv is the service's observability layer: a dependency-free
// metrics registry with Prometheus text exposition, slog-based structured
// logging with per-request IDs, and the HTTP middleware chain (request-ID
// injection, access logging, panic recovery, in-flight and latency
// instrumentation) that wraps the critloadd API.
package obsv

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricName constrains family names to the Prometheus data model.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// labelName constrains label names likewise.
var labelName = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// DefBuckets are the default latency histogram bounds in seconds, matching
// the conventional Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metric is one sample series inside a family; Write emits its exposition
// lines (one for scalars, bucket/sum/count for histograms).
type metric interface {
	write(w io.Writer, name string)
}

// family groups every series sharing a metric name; HELP/TYPE are emitted
// once per family, series in registration order.
type family struct {
	name, help, typ string
	labelSets       map[string]bool // rendered label strings already taken
	metrics         []metric
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; registration
// of a name with a conflicting type, or of a duplicate (name, labels) pair,
// panics — both are programming errors worth failing loudly on.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family registration order, for stable exposition
	refresh  []func() // re-snapshot the stats structs behind Struct series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register validates and attaches one series to its (possibly new) family.
func (r *Registry) register(name, help, typ string, labels map[string]string, m metric) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", name))
	}
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, labelSets: map[string]bool{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obsv: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if f.labelSets[lbl] {
		panic(fmt.Sprintf("obsv: duplicate metric %s{%s}", name, lbl))
	}
	f.labelSets[lbl] = true
	f.metrics = append(f.metrics, m)
}

// Counter registers a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	c := &Counter{lbl: renderLabels(labels)}
	r.register(name, help, "counter", labels, c)
	return c
}

// Gauge registers a gauge that can move in both directions.
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	g := &Gauge{lbl: renderLabels(labels)}
	r.register(name, help, "gauge", labels, g)
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time. (Counters that
// already live in a stats struct are registered with Struct.)
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.register(name, help, "gauge", labels, &funcMetric{lbl: renderLabels(labels), fn: fn})
}

// Histogram registers a cumulative histogram over the given ascending upper
// bounds (the implicit +Inf bucket is added automatically). A nil or empty
// buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, labels map[string]string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: histogram %q buckets not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		lbl:     renderLabels(labels),
		bounds:  append([]float64(nil), buckets...),
		buckets: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(name, help, "histogram", labels, h)
	return h
}

// WritePrometheus renders every family in the text exposition format:
// HELP and TYPE once per family, then its series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, snapshot := range r.refresh {
		snapshot()
	}
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, m := range f.metrics {
			m.write(w, f.name)
		}
	}
}

// ---------------------------------------------------------------------------
// Series implementations.

// Counter is a monotonically increasing series.
type Counter struct {
	lbl string
	v   atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(c.lbl), c.v.Load())
}

// Gauge is a series that can move in both directions.
type Gauge struct {
	lbl string
	v   atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(g.lbl), g.v.Load())
}

// funcMetric reads its value from a callback at scrape time.
type funcMetric struct {
	lbl string
	fn  func() float64
}

func (f *funcMetric) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(f.lbl), formatFloat(f.fn()))
}

// Histogram is a cumulative histogram: per-bucket observation counts
// (rendered cumulatively with the conventional le label), a running sum and
// a total count. Observe is lock-free.
type Histogram struct {
	lbl     string
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer, name string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(h.lbl, `le="`+formatFloat(bound)+`"`)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(h.lbl, `le="+Inf"`)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(h.lbl), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(h.lbl), h.count.Load())
}

// ---------------------------------------------------------------------------
// Rendering helpers.

// renderLabels turns a label map into the canonical inner label string
// (`k1="v1",k2="v2"`, keys sorted), without surrounding braces so that
// histograms can append the le label.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelName.MatchString(k) {
			panic(fmt.Sprintf("obsv: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// braced wraps a non-empty inner label string for exposition.
func braced(lbl string) string {
	if lbl == "" {
		return ""
	}
	return "{" + lbl + "}"
}

// joinLabels appends one rendered pair to an inner label string.
func joinLabels(lbl, pair string) string {
	if lbl == "" {
		return pair
	}
	return lbl + "," + pair
}

// escapeLabel applies the exposition-format label value escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp applies the exposition-format HELP text escapes.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
