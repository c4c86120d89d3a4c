package obsv_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/jobs"
	"critload/internal/journal"
	"critload/internal/obsv"
)

func expose(r *obsv.Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

type innerStats struct {
	Depth int64 `metric:"test_depth,gauge" help:"Nested gauge."`
}

type testStats struct {
	Hits     uint64  `metric:"test_hits_total,counter" help:"Hits."`
	Nanos    uint64  `metric:"test_seconds_total,counter" div:"1e9" help:"Seconds."`
	Ratio    float64 `metric:"test_ratio,gauge" help:"Ratio."`
	Durable  uint64  `metric:"test_durable_total,counter" when:"durable" help:"Only with the durable tier."`
	Internal uint64  `metric:"-"`
	Name     string  // not a number: needs no classification
	Inner    innerStats
	private  int
}

// TestStructSnapshotsOncePerScrape: a source feeding many fields is read
// once per WritePrometheus — every sample in a scrape comes from the same
// snapshot, and an expensive Stats() (a directory scan) is paid once.
func TestStructSnapshotsOncePerScrape(t *testing.T) {
	r := obsv.NewRegistry()
	calls := 0
	obsv.Struct(r, func() testStats {
		calls++
		return testStats{Hits: uint64(calls), Nanos: 1_500_000_000, Ratio: 0.25, Durable: 9,
			Inner: innerStats{Depth: -3}, private: 1}
	})
	if calls != 0 {
		t.Fatalf("registration called the snapshot function %d times", calls)
	}
	for scrape := 1; scrape <= 2; scrape++ {
		out := expose(r)
		if calls != scrape {
			t.Fatalf("scrape %d: snapshot function called %d times in total, want one per scrape", scrape, calls)
		}
		for _, want := range []string{
			"# HELP test_hits_total Hits.\n# TYPE test_hits_total counter\ntest_hits_total " + strconv.Itoa(scrape) + "\n",
			"# TYPE test_seconds_total counter\ntest_seconds_total 1.5\n",
			"# TYPE test_ratio gauge\ntest_ratio 0.25\n",
			"# HELP test_depth Nested gauge.\n# TYPE test_depth gauge\ntest_depth -3\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("scrape %d missing %q:\n%s", scrape, want, out)
			}
		}
		if strings.Contains(out, "test_durable_total") {
			t.Errorf("conditional family exported without its condition:\n%s", out)
		}
	}

	r = obsv.NewRegistry()
	obsv.Struct(r, func() testStats { return testStats{Durable: 9} }, "durable")
	if out := expose(r); !strings.Contains(out, "test_durable_total 9\n") {
		t.Errorf("conditional family missing with its condition set:\n%s", out)
	}
}

func TestStructRejectsUnclassifiedAndMalformedFields(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: registration did not panic", name)
			}
		}()
		fn()
	}
	r := obsv.NewRegistry()
	mustPanic("untagged numeric field", func() {
		obsv.Struct(r, func() struct{ Forgotten uint64 } { return struct{ Forgotten uint64 }{} })
	})
	mustPanic("bad type", func() {
		obsv.Struct(r, func() struct {
			X int `metric:"x_total,summary"`
		} {
			panic("unreachable")
		})
	})
	mustPanic("bad divisor", func() {
		obsv.Struct(r, func() struct {
			X int `metric:"x_total,counter" div:"ns"`
		} {
			panic("unreachable")
		})
	})
}

// TestStatsFieldAudit forces every exported numeric field of the four stats
// structs behind /metrics to be classified: exported under the family its
// metric tag names (with a help text), or marked metric:"-". Adding a
// counter without deciding fails here — and at daemon start, where
// obsv.Struct panics — rather than shipping a counter nobody can see.
func TestStatsFieldAudit(t *testing.T) {
	var families []string // "name type", as on a # TYPE line
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, tagged := f.Tag.Lookup("metric")
			switch k := f.Type.Kind(); {
			case !f.IsExported() || tag == "-":
			case k == reflect.Struct:
				walk(f.Type, path+"."+f.Name)
			case k == reflect.Bool || k == reflect.String || k > reflect.Float64:
			case !tagged:
				t.Errorf("%s.%s is not classified: give it a metric tag (and a docs/SERVICE.md row) or metric:\"-\"", path, f.Name)
			case f.Tag.Get("help") == "":
				t.Errorf("%s.%s is exported without a help text", path, f.Name)
			default:
				families = append(families, strings.Replace(tag, ",", " ", 1))
			}
		}
	}
	for _, v := range []any{jobs.Stats{}, checkpoint.Stats{}, jobs.ResultStoreStats{}, journal.Stats{}} {
		walk(reflect.TypeOf(v), reflect.TypeOf(v).String())
	}
	if t.Failed() {
		return // registration below would panic on the same fields
	}
	r := obsv.NewRegistry()
	obsv.Struct(r, func() jobs.Stats { return jobs.Stats{} }, "journal", "results")
	obsv.Struct(r, func() checkpoint.Stats { return checkpoint.Stats{} })
	obsv.Struct(r, func() jobs.ResultStoreStats { return jobs.ResultStoreStats{} })
	obsv.Struct(r, func() journal.Stats { return journal.Stats{} })
	out := expose(r)
	for _, family := range families {
		if !strings.Contains(out, "# TYPE "+family+"\n") {
			t.Errorf("family %q is tagged on a stats struct but not on the scrape", family)
		}
	}
}
