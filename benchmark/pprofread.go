package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzip'd protobuf CPU profiles runtime/pprof writes:
// just enough of profile.proto (samples, locations, functions, the string
// table) to charge every sample to a package. No module dependency.

// stackSample is one profile sample: function names innermost first, and the
// sample's last value (cpu nanoseconds in a CPU profile).
type stackSample struct {
	Funcs []string
	Value int64
}

// protoField is one decoded field: varint fields carry val, length-delimited
// fields carry buf.
type protoField struct {
	num, wire int
	val       uint64
	buf       []byte
}

var errProto = errors.New("pprof: malformed protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField calls fn for every field of one message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errProto
			}
			f.buf, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints appends one repeated integer field occurrence, packed or
// not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.buf
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzip'd) pprof profile into stack samples.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err := eachField(data, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := eachField(f.buf, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					s.vals, err = repeatedVarints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(f.buf, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return eachField(g.buf, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(f.buf, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{Value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostCPUModules are the repo's packages that get a hostcpu.<pkg>_share of
// their own; hostCPUOutside are the categories for frames outside the module.
var (
	hostCPUModules = []string{"gpu", "sm", "emu", "isa", "coalesce", "cache", "icnt", "dram",
		"mem", "memreq", "ring", "stats", "workloads", "dataflow", "ptx", "jobs", "journal",
		"server", "obsv", "checkpoint", "client"}
	hostCPUOutside = []string{"nethttp", "json", "syscall", "runtime_gc", "runtime_alloc", "other"}
)

func hostCPUCategories() []string {
	return append(append([]string(nil), hostCPUModules...), hostCPUOutside...)
}

var (
	gcFuncPrefixes = []string{"runtime.gc", "runtime.scan", "runtime.mark", "runtime.greyobject",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gcWork)",
		"runtime.(*gcControllerState)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.wbBuf", "runtime.findObject", "runtime.(*gcBits)", "runtime.(*scavenge"}
	allocFuncPrefixes = []string{"runtime.malloc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.makechan",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc",
		"runtime.nextFreeFast", "runtime.deductAssistCredit", "runtime.profilealloc",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.concatstring", "runtime.slicebytetostring",
		"runtime.stringtoslicebyte"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// categoryOf names the hostcpu category a function belongs to, or "" for a
// frame that belongs to none (the walk then moves one frame outward).
func categoryOf(fn string) string {
	// Package path: everything before the first '.' after the last '/'.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "critload/pkg/client":
		return "client"
	case strings.HasPrefix(pkg, "critload/internal/"):
		name := strings.TrimPrefix(pkg, "critload/internal/")
		for _, m := range hostCPUModules {
			if name == m {
				return m
			}
		}
		return ""
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "nethttp"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall" || pkg == "os":
		return "syscall"
	case pkg == "runtime":
		if hasAnyPrefix(fn, gcFuncPrefixes) {
			return "runtime_gc"
		}
		if hasAnyPrefix(fn, allocFuncPrefixes) {
			return "runtime_alloc"
		}
	}
	return ""
}

// attribute charges every sample to the innermost frame that belongs to a
// category ("other" when no frame does) and returns each category's share
// of the profile; the shares sum to 1. An empty profile gives all zeros.
func attribute(samples []stackSample) map[string]float64 {
	total := int64(0)
	by := map[string]int64{}
	for _, s := range samples {
		cat := "other"
		for _, fn := range s.Funcs {
			if c := categoryOf(fn); c != "" {
				cat = c
				break
			}
		}
		by[cat] += s.Value
		total += s.Value
	}
	out := map[string]float64{}
	for _, c := range hostCPUCategories() {
		out[c] = ratio(float64(by[c]), float64(total))
	}
	return out
}
