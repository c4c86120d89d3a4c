package obsv

import (
	"strings"
	"testing"
)

func expose(r *Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.", nil)
	c.Inc()
	c.Add(2)
	out := expose(r)
	for _, want := range []string{
		"# HELP test_total A test counter.\n",
		"# TYPE test_total counter\n",
		"test_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("Value = %d, want 3", c.Value())
	}
}

func TestGaugeExposition(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.", nil)
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := expose(r); !strings.Contains(got, "depth 3\n") {
		t.Errorf("gauge line missing:\n%s", got)
	}
}

func TestLabelsSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lbl_total", "Labelled.", map[string]string{
		"zeta":  "z",
		"alpha": `quo"te` + "\nnl\\bs",
	})
	c.Inc()
	want := `lbl_total{alpha="quo\"te\nnl\\bs",zeta="z"} 1`
	if got := expose(r); !strings.Contains(got, want) {
		t.Errorf("want %q in:\n%s", want, got)
	}
}

func TestSharedFamilyEmitsOneHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam_total", "Family.", map[string]string{"k": "a"}).Inc()
	r.Counter("fam_total", "Family.", map[string]string{"k": "b"}).Add(2)
	out := expose(r)
	if n := strings.Count(out, "# HELP fam_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE fam_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1:\n%s", n, out)
	}
	for _, want := range []string{`fam_total{k="a"} 1`, `fam_total{k="b"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := -3.5
	r.GaugeFunc("fn_gauge", "Func gauge.", nil, func() float64 { return v })
	v++
	if out := expose(r); !strings.Contains(out, "# TYPE fn_gauge gauge\nfn_gauge -2.5\n") {
		t.Errorf("func gauge not read at scrape time:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", map[string]string{"ep": "/x"}, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := expose(r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{ep="/x",le="0.1"} 1`,
		`lat_seconds_bucket{ep="/x",le="1"} 3`,
		`lat_seconds_bucket{ep="/x",le="10"} 4`,
		`lat_seconds_bucket{ep="/x",le="+Inf"} 5`,
		`lat_seconds_sum{ep="/x"} 56.05`,
		`lat_seconds_count{ep="/x"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge", "Boundary.", nil, []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	if got := expose(r); !strings.Contains(got, `edge_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in inclusive bucket:\n%s", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x", nil)
	mustPanic("duplicate series", func() { r.Counter("dup_total", "x", nil) })
	mustPanic("type conflict", func() { r.Gauge("dup_total", "x", map[string]string{"a": "b"}) })
	mustPanic("bad name", func() { r.Counter("bad name", "x", nil) })
	mustPanic("bad label", func() { r.Counter("ok_total", "x", map[string]string{"bad-label": "v"}) })
	mustPanic("bad buckets", func() { r.Histogram("h", "x", nil, []float64{2, 1}) })
}
