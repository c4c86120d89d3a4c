package obsv

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Struct registers one series per tagged field of the stats struct snap
// returns, so a component's metrics are declared once, beside the fields
// that back them, and adding a counter is adding a field:
//
//	Hits uint64 `metric:"critloadd_x_hits_total,counter" help:"Reads served from X."`
//
// The metric tag is "<name>,<counter|gauge>". Two more tags are optional:
// div:"1e9" exports the field divided by that number (nanoseconds as
// seconds), and when:"<cond>" registers the family only if cond is among
// conds (families that exist only in some deployments). Nested structs are
// walked. Every exported numeric field must be classified — a metric tag,
// or metric:"-" for a value deliberately kept off /metrics; an unclassified
// one panics at registration, so a new counter cannot be silently forgotten.
//
// snap is called once per WritePrometheus however many fields it feeds.
func Struct[T any](r *Registry, snap func() T, conds ...string) {
	cur := new(reflect.Value) // the snapshot behind the scrape being rendered
	r.mu.Lock()
	r.refresh = append(r.refresh, func() { *cur = reflect.ValueOf(snap()) })
	r.mu.Unlock()
	r.registerFields(cur, reflect.TypeOf((*T)(nil)).Elem(), nil, conds)
}

func (r *Registry) registerFields(cur *reflect.Value, t reflect.Type, index []int, conds []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, tagged := f.Tag.Lookup("metric")
		if !f.IsExported() || tag == "-" {
			continue
		}
		idx := append(index[:len(index):len(index)], i)
		switch {
		case f.Type.Kind() == reflect.Struct && !tagged:
			r.registerFields(cur, f.Type, idx, conds)
			continue
		case !f.Type.ConvertibleTo(float64Type):
			continue // not a number: nothing to export
		case !tagged:
			panic(fmt.Sprintf("obsv: %s.%s has no metric tag: export it, or mark it metric:\"-\"", t, f.Name))
		}
		name, typ, _ := strings.Cut(tag, ",")
		if typ != "counter" && typ != "gauge" {
			panic(fmt.Sprintf("obsv: %s.%s: metric tag %q is not \"name,counter|gauge\"", t, f.Name, tag))
		}
		m := &fieldMetric{cur: cur, index: idx, div: 1}
		if div, ok := f.Tag.Lookup("div"); ok {
			var err error
			if m.div, err = strconv.ParseFloat(div, 64); err != nil {
				panic(fmt.Sprintf("obsv: %s.%s: div tag: %v", t, f.Name, err))
			}
		}
		if when, ok := f.Tag.Lookup("when"); !ok || slices.Contains(conds, when) {
			r.register(name, f.Tag.Get("help"), typ, nil, m)
		}
	}
}

// fieldMetric reads one numeric field of its struct's current snapshot.
type fieldMetric struct {
	cur   *reflect.Value
	index []int
	div   float64
}

var float64Type = reflect.TypeOf(float64(0))

func (f *fieldMetric) write(w io.Writer, name string) {
	v := f.cur.FieldByIndex(f.index).Convert(float64Type).Float()
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(v/f.div))
}
