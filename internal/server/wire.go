package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"critload/internal/jobs"
	"critload/pkg/api"
)

// The hot responses — classify, batch, PTX and job snapshots — are written
// by hand, in one pass, into a pooled buffer; a job's result, already JSON,
// goes through json.Indent. Their bytes are exactly what a json.Encoder with
// SetIndent("", "  ") writes for the same value, and they fail exactly where
// it fails; encoding/json stays the oracle in the tests and the encoder of
// the cold responses (catalog, health, errors).

// maxPooledJSON keeps an occasional huge response from pinning its buffer.
const maxPooledJSON = 1 << 20

var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeWire encodes one response into a pooled buffer and only then commits
// the status, so a value that cannot be encoded answers 500 with an
// api.Error body rather than a success header over an empty body. Write
// errors can only come from a hung client and are dropped.
func writeWire(w http.ResponseWriter, status int, encode func([]byte) ([]byte, error)) {
	p := wireBufs.Get().(*[]byte)
	b, err := encode((*p)[:0])
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendStdJSON(b[:0], api.Error{Message: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledJSON {
		*p = b
		wireBufs.Put(p)
	}
}

// writeJSON answers with a cold-path value through encoding/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeWire(w, status, func(b []byte) ([]byte, error) { return appendStdJSON(b, v) })
}

// The hot writers hand writeWire a closure, not an any, so the value being
// encoded does not escape to the heap.

func writeClassify(w http.ResponseWriter, r *api.ClassifyResult) {
	writeWire(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendClassify(b, r), nil })
}

func writeBatch(w http.ResponseWriter, r *api.BatchResult) {
	writeWire(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendBatch(b, r), nil })
}

func writePTX(w http.ResponseWriter, r *api.PTXResult) {
	writeWire(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendPTX(b, r), nil })
}

func writeJob(w http.ResponseWriter, status int, info *jobs.JobInfo) {
	writeWire(w, status, func(b []byte) ([]byte, error) { return appendJob(b, info) })
}

// appendStdJSON appends v as a json.Encoder with a two-space indent writes
// it: MarshalIndent's bytes and a newline.
func appendStdJSON(b []byte, v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return b, err
	}
	return append(append(b, out...), '\n'), nil
}

func appendClassify(b []byte, r *api.ClassifyResult) []byte {
	w := wireWriter{b: b}
	w.classify(r)
	return w.end()
}

func appendBatch(b []byte, r *api.BatchResult) []byte {
	w := wireWriter{b: b}
	w.open('{')
	if w.key("items").array(r.Items == nil) {
		for i := range r.Items {
			w.elem()
			w.batchItem(&r.Items[i])
		}
		w.close(']')
	}
	w.key("succeeded").int(int64(r.Succeeded))
	w.key("failed").int(int64(r.Failed))
	w.close('}')
	return w.end()
}

func appendPTX(b []byte, r *api.PTXResult) []byte {
	w := wireWriter{b: b}
	w.open('{')
	w.key("sha256").str(r.SHA256)
	if w.key("kernels").array(r.Kernels == nil) {
		for i := range r.Kernels {
			w.elem()
			w.ptxKernel(&r.Kernels[i])
		}
		w.close(']')
	}
	w.close('}')
	return w.end()
}

// appendJob appends a job snapshot. It fails where encoding/json fails: on
// a time outside RFC 3339, a NaN or infinite rate, or result bytes that are
// not one valid JSON value.
func appendJob(b []byte, j *jobs.JobInfo) ([]byte, error) {
	w := wireWriter{b: b}
	w.open('{')
	w.key("id").str(j.ID)
	w.key("spec").spec(&j.Spec)
	w.key("key").str(j.Key)
	w.key("state").str(string(j.State))
	if j.Error != "" {
		w.key("error").str(j.Error)
	}
	if j.CacheHit {
		w.key("cache_hit").bool(true)
	}
	if err := w.key("created").time(j.Created); err != nil {
		return w.b, err
	}
	if err := w.key("started").time(j.Started); err != nil {
		return w.b, err
	}
	if err := w.key("finished").time(j.Finished); err != nil {
		return w.b, err
	}
	w.key("queued_millis").int(j.QueuedMillis)
	w.key("wall_millis").int(j.WallMillis)
	if p := j.Progress; p != nil {
		w.key("progress").open('{')
		w.key("cycles").int(p.Cycles)
		w.key("warp_insts").uint(p.WarpInsts)
		if p.CyclesPerSec != 0 {
			if err := w.key("cycles_per_sec").float(p.CyclesPerSec); err != nil {
				return w.b, err
			}
		}
		if err := w.key("updated").time(p.Updated); err != nil {
			return w.b, err
		}
		w.close('}')
	}
	if j.Recovered {
		w.key("recovered").bool(true)
	}
	if len(j.Result) != 0 {
		if err := w.key("result").raw(j.Result); err != nil {
			return w.b, err
		}
	}
	w.close('}')
	return w.end(), nil
}

func (w *wireWriter) spec(s *jobs.Spec) {
	w.open('{')
	w.key("workload").str(s.Workload)
	w.key("mode").str(string(s.Mode))
	if s.Size != 0 {
		w.key("size").int(int64(s.Size))
	}
	if s.Seed != 0 {
		w.key("seed").int(s.Seed)
	}
	if s.MaxWarpInsts != 0 {
		w.key("max_warp_insts").uint(s.MaxWarpInsts)
	}
	if s.MaxCycles != 0 {
		w.key("max_cycles").int(s.MaxCycles)
	}
	if s.Timeout != 0 {
		w.key("timeout").int(int64(s.Timeout))
	}
	if s.ReuseCheckpoints {
		w.key("reuse_checkpoints").bool(true)
	}
	w.close('}')
}

func (w *wireWriter) classify(r *api.ClassifyResult) {
	w.open('{')
	if w.key("kernels").array(r.Kernels == nil) {
		for i := range r.Kernels {
			w.elem()
			w.kernel(&r.Kernels[i])
		}
		w.close(']')
	}
	w.close('}')
}

func (w *wireWriter) batchItem(it *api.BatchItemResult) {
	w.open('{')
	if it.ID != "" {
		w.key("id").str(it.ID)
	}
	w.key("status").int(int64(it.Status))
	if it.Error != "" {
		w.key("error").str(it.Error)
	}
	if it.Result != nil {
		w.key("result").classify(it.Result)
	}
	w.close('}')
}

func (w *wireWriter) kernel(k *api.Kernel) {
	w.open('{')
	w.key("name").str(k.Name)
	w.key("deterministic").int(int64(k.Deterministic))
	w.key("non_deterministic").int(int64(k.NonDeterministic))
	if w.key("loads").array(k.Loads == nil) {
		for i := range k.Loads {
			w.elem()
			w.load(&k.Loads[i])
		}
		w.close(']')
	}
	w.close('}')
}

func (w *wireWriter) ptxKernel(k *api.PTXKernel) {
	w.open('{')
	w.key("name").str(k.Name)
	w.key("instructions").int(int64(k.Instructions))
	w.key("registers").int(int64(k.Registers))
	if k.SharedBytes != 0 {
		w.key("shared_bytes").int(int64(k.SharedBytes))
	}
	w.key("deterministic").int(int64(k.Deterministic))
	w.key("non_deterministic").int(int64(k.NonDeterministic))
	if w.key("loads").array(k.Loads == nil) {
		for i := range k.Loads {
			w.elem()
			w.load(&k.Loads[i])
		}
		w.close(']')
	}
	w.close('}')
}

func (w *wireWriter) load(l *api.Load) {
	w.open('{')
	w.key("pc").str(l.PC)
	w.key("inst").str(l.Inst)
	w.key("class").str(l.Class)
	if w.key("roots").array(l.Roots == nil) {
		for i := range l.Roots {
			w.elem()
			w.root(&l.Roots[i])
		}
		w.close(']')
	}
	w.close('}')
}

func (w *wireWriter) root(r *api.Root) {
	w.open('{')
	w.key("kind").str(r.Kind)
	if r.Name != "" {
		w.key("name").str(r.Name)
	}
	w.close('}')
}

// wireWriter writes indented JSON in one pass. Every value inside a
// container is introduced by key or elem, which write the separator and the
// indentation; open and close track the depth, and a container closed with
// nothing in it stays "{}" or "[]" as the indenter writes it.
type wireWriter struct {
	b     []byte
	depth int
	more  bool // the innermost open container already holds a value
}

func (w *wireWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.more = false
}

func (w *wireWriter) close(c byte) {
	w.depth--
	if w.more {
		w.b = appendNewline(w.b, w.depth)
	}
	w.b = append(w.b, c)
	w.more = true
}

// array opens an array and reports true, or, for a nil slice, writes null
// as encoding/json does and reports false.
func (w *wireWriter) array(isNil bool) bool {
	if isNil {
		w.null()
		return false
	}
	w.open('[')
	return true
}

func (w *wireWriter) elem() {
	if w.more {
		w.b = append(w.b, ',')
	}
	w.b = appendNewline(w.b, w.depth)
	w.more = true
}

// key introduces a member, returning w to write its value; names are plain
// ASCII and need no escaping.
func (w *wireWriter) key(name string) *wireWriter {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
	return w
}

// end terminates the top-level value with the newline Encoder.Encode adds.
func (w *wireWriter) end() []byte { return append(w.b, '\n') }

func (w *wireWriter) null()         { w.b = append(w.b, "null"...) }
func (w *wireWriter) int(v int64)   { w.b = strconv.AppendInt(w.b, v, 10) }
func (w *wireWriter) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }
func (w *wireWriter) bool(v bool)   { w.b = strconv.AppendBool(w.b, v) }

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string carries unescaped: everything
// printable but the quote, the backslash and the HTML specials <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// str writes s as encoding/json does with HTML escaping on: short escapes
// for \b \f \n \r \t, \u00XX for other control bytes and for <, > and &,
// \u2028 and \u2029 for the JavaScript line separators, and \ufffd for
// each byte of invalid UTF-8.
func (w *wireWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// float writes f as encoding/json does: the shortest round-trip digits,
// in exponent form below 1e-6 and from 1e21 on.
func (w *wireWriter) float(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.b = b
	return nil
}

var (
	timeType       = reflect.TypeFor[time.Time]()
	rawMessageType = reflect.TypeFor[json.RawMessage]()
)

// time writes t in RFC 3339 with nanoseconds, trailing zeros trimmed. A
// time RFC 3339 cannot hold (a year outside 0–9999, an offset of 24 hours
// or more) fails with the error Time.MarshalJSON gives encoding/json.
func (w *wireWriter) time(t time.Time) error {
	w.b = append(w.b, '"')
	n0 := len(w.b)
	w.b = t.AppendFormat(w.b, time.RFC3339Nano)
	if s := w.b[n0:]; s[len("9999")] != '-' || s[len(s)-1] != 'Z' && badOffset(s[len(s)-len("Z07:00"):]) {
		_, err := t.MarshalJSON()
		return &json.MarshalerError{Type: timeType, Err: err}
	}
	w.b = append(w.b, '"')
	return nil
}

// badOffset reports a "+hh:mm" zone RFC 3339 cannot hold: more than two
// hour digits, or 24 hours or more.
func badOffset(z []byte) bool {
	return '0' <= z[0] && z[0] <= '9' || 10*(z[1]-'0')+(z[2]-'0') >= 24
}

// raw appends a job's result as the value of its "result" member, one level
// into the job object. The bytes are json.Marshal output (see
// jobs.JobInfo.Result): compact, with <, >, &, U+2028 and U+2029 already
// escaped, so indenting them is all a json.Encoder still does to them.
// Bytes that are not one JSON value fail with the error encoding/json
// gives for a json.RawMessage.
func (w *wireWriter) raw(src []byte) error {
	buf := bytes.NewBuffer(w.b)
	if err := json.Indent(buf, src, "  ", "  "); err != nil {
		return &json.MarshalerError{Type: rawMessageType, Err: err}
	}
	w.b = buf.Bytes()
	return nil
}

func appendNewline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}
