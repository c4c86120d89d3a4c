package server

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/pkg/api"
)

// fuzzInput hands out values drawn from fuzz bytes; past its end every
// value is zero.
type fuzzInput []byte

func (f *fuzzInput) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

func (f *fuzzInput) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

// int is zero, small (negative too) or any int64, so omitempty members
// are left out often.
func (f *fuzzInput) int() int64 {
	switch f.byte() % 4 {
	case 0:
		return 0
	case 1, 2:
		return int64(int8(f.byte()))
	}
	return int64(f.uint64())
}

func (f *fuzzInput) bool() bool { return f.byte()&1 != 0 }

// count is a slice length, -1 meaning a nil slice.
func (f *fuzzInput) count() int {
	c := f.byte()
	if c%5 == 0 {
		return -1
	}
	return int(c % 4)
}

// fuzzPieces are what encoding/json escapes or rewrites in a string, and
// UTF-8 that is valid, truncated or not UTF-8 at all.
var fuzzPieces = []string{
	"<", ">", "&", "\xe2\x80\xa8", "\xe2\x80\xa9", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f",
	"\x7f", `"`, `\`, "\xff", "\xe2\x80", "\xc3\xa9", "\xf0\x9f\x98\x80", "\xed\xa0\x80", "a",
}

// str is raw fuzz bytes, or a run of fuzzPieces.
func (f *fuzzInput) str() string {
	n := f.byte()
	var s []byte
	if n&0x80 == 0 {
		for i := 0; i < int(n%16); i++ {
			s = append(s, f.byte())
		}
	} else {
		for i := 0; i < int(n%8); i++ {
			s = append(s, fuzzPieces[int(f.byte())%len(fuzzPieces)]...)
		}
	}
	return string(s)
}

// time is zero, near now in a zone whose offset may reach past 24 hours, or
// any instant at all — most of those outside years 0–9999.
func (f *fuzzInput) time() time.Time {
	switch f.byte() % 4 {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(int64(f.uint64()), int64(f.uint64()))
	}
	t := time.Unix(1<<30+int64(int32(f.uint64())), int64(f.uint64()%1e9))
	return t.In(time.FixedZone("", int(int8(f.byte()))*15*60))
}

// float is zero or any float64 bit pattern, NaN and the infinities included.
func (f *fuzzInput) float() float64 {
	if f.bool() {
		return 0
	}
	return math.Float64frombits(f.uint64())
}

func (f *fuzzInput) loads() []api.Load {
	n := f.count()
	if n < 0 {
		return nil
	}
	ls := make([]api.Load, n)
	for i := range ls {
		ls[i] = api.Load{PC: f.str(), Inst: f.str(), Class: f.str()}
		if m := f.count(); m >= 0 {
			ls[i].Roots = make([]api.Root, m)
			for j := range ls[i].Roots {
				ls[i].Roots[j] = api.Root{Kind: f.str(), Name: f.str()}
			}
		}
	}
	return ls
}

func (f *fuzzInput) classify() api.ClassifyResult {
	var r api.ClassifyResult
	if n := f.count(); n >= 0 {
		r.Kernels = make([]api.Kernel, n)
		for i := range r.Kernels {
			r.Kernels[i] = api.Kernel{Name: f.str(), Deterministic: int(f.int()), NonDeterministic: int(f.int()), Loads: f.loads()}
		}
	}
	return r
}

func (f *fuzzInput) batch() api.BatchResult {
	r := api.BatchResult{Succeeded: int(f.int()), Failed: int(f.int())}
	if n := f.count(); n >= 0 {
		r.Items = make([]api.BatchItemResult, n)
		for i := range r.Items {
			r.Items[i] = api.BatchItemResult{ID: f.str(), Status: int(f.int()), Error: f.str()}
			if f.bool() {
				c := f.classify()
				r.Items[i].Result = &c
			}
		}
	}
	return r
}

func (f *fuzzInput) ptx() api.PTXResult {
	r := api.PTXResult{SHA256: f.str()}
	if n := f.count(); n >= 0 {
		r.Kernels = make([]api.PTXKernel, n)
		for i := range r.Kernels {
			r.Kernels[i] = api.PTXKernel{
				Name: f.str(), Instructions: int(f.int()), Registers: int(f.int()), SharedBytes: int(f.int()),
				Deterministic: int(f.int()), NonDeterministic: int(f.int()), Loads: f.loads(),
			}
		}
	}
	return r
}

func (f *fuzzInput) job(result []byte) jobs.JobInfo {
	j := jobs.JobInfo{
		ID: f.str(),
		Spec: jobs.Spec{
			Workload: f.str(), Mode: jobs.Mode(f.str()), Size: int(f.int()), Seed: f.int(),
			MaxWarpInsts: uint64(f.int()), MaxCycles: f.int(), Timeout: time.Duration(f.int()),
			ReuseCheckpoints: f.bool(),
		},
		Key: f.str(), State: jobs.State(f.str()), Error: f.str(), CacheHit: f.bool(),
		Created: f.time(), Started: f.time(), Finished: f.time(),
		QueuedMillis: f.int(), WallMillis: f.int(), Recovered: f.bool(),
		Result: result,
	}
	if f.bool() {
		j.Progress = &jobs.Progress{Cycles: f.int(), WarpInsts: uint64(f.int()), CyclesPerSec: f.float(), Updated: f.time()}
	}
	return j
}

// FuzzWireEncoding builds one value of each hand-encoded type from the fuzz
// bytes and the job's result from the second input, and compares the hand
// encoder's bytes or error with encoding/json's. A result that is JSON is
// stored as the manager stores it, through json.Marshal; one that is not is
// kept as it is.
func FuzzWireEncoding(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("\x01\x02\x83\x00\x01\x02\x81\x07\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"), []byte(`{"a":[1,{},[],"x"]}`))
	f.Add([]byte("\xff\xfe\x8f\x01\x02\x03\x04\x05\x06\x07\x10\x20\x30\x40\x50\x60\x70\x80\x90\xa0"), []byte("{\"<k>\" : [\"&\xe2\x80\xa8\xff\", -0.5e-7, true, null] }"))
	f.Add([]byte("\x03\x7f\x13\x03\x93\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f"), []byte(`[1,2,`))
	f.Add([]byte("\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x03\x03\x03\x03\x03\x03"), []byte("\"\\u00e9\\b\\/\""))
	f.Fuzz(func(t *testing.T, data, result []byte) {
		// Indentation grows with the square of the nesting, so deep results
		// are slow rather than interesting; TestWireEncodeResults covers the
		// nesting limit.
		if len(result) > 1024 {
			result = result[:1024]
		}
		if stored, err := json.Marshal(json.RawMessage(result)); err == nil {
			result = stored
		}
		in := fuzzInput(data)
		c := in.classify()
		sameWire(t, "classify", appendClassify(nil, &c), nil, c)
		b := in.batch()
		sameWire(t, "batch", appendBatch(nil, &b), nil, b)
		p := in.ptx()
		sameWire(t, "ptx", appendPTX(nil, &p), nil, p)
		j := in.job(result)
		got, err := appendJob(nil, &j)
		sameWire(t, "job", got, err, j)
	})
}
