package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Self time per layer comes from a CPU profile taken around the traced
// phase. Each sample is charged to the innermost frame that belongs to a
// layer; runtime and other standard-library frames are charged to the
// layer that called them. Three exceptions keep shared infrastructure
// visible: background GC work is runtime_gc, and net/http and
// encoding/json frames are their own layers when they sit below the first
// repo frame (a handler's JSON encoding is json, not serve). The
// benchmark's own frames, including the HTTP client calls it makes, are
// bench.

// repoModule is the import path of the module under test.
const repoModule = "dyndiam"

// layerOf maps a package import path to its layer, or "" for a package
// whose frames are charged to their caller. Repo packages that are not a
// layer of their own fold into the layer that owns them.
func layerOf(pkg string) string {
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "json"
	case pkg == repoModule:
		return "" // the public facade only forwards
	}
	rest, ok := strings.CutPrefix(pkg, repoModule+"/internal/")
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "chains", "disjcp":
		return "subnet" // construction algebra and instances of the reductions
	case "stats", "export", "verify", "cliutil":
		return "harness" // aggregation, rendering and auditing of experiments
	}
	return top
}

// funcPackage extracts the import path from a symbol name such as
// "dyndiam/internal/bitio.(*Writer).WriteBit" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcWorkers are the roots of background GC goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// stdLayers are layers made of standard-library packages; a repo frame
// above them does not claim their samples.
var stdLayers = map[string]bool{"net_http": true, "json": true}

// chargeStack returns the layer a sample with this stack (innermost frame
// first) is charged to; "other" when no frame belongs to a layer, such as
// the scheduler's own work.
func chargeStack(stack []string) string {
	for _, fn := range stack {
		if gcWorkers[fn] {
			return "runtime_gc"
		}
	}
	std := ""
	for _, fn := range stack {
		l := layerOf(funcPackage(fn))
		switch {
		case l == "":
			continue
		case l == "bench":
			return l
		case stdLayers[l]:
			if std == "" {
				std = l
			}
		default:
			if std != "" {
				return std
			}
			return l
		}
	}
	if std != "" {
		return std
	}
	return "other"
}

// cpuProfile captures a CPU profile into memory.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the capture and returns the raw gzip-compressed profile.
func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// selfSeconds decodes a pprof CPU profile and sums its CPU time per layer.
func selfSeconds(raw []byte) (map[string]float64, error) {
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[chargeStack(s.stack)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// profSample is one decoded stack with its CPU nanoseconds.
type profSample struct {
	stack []string // innermost frame first, inlined frames expanded
	nanos int64
}

// decodeProfile reads the subset of the pprof protobuf format a Go CPU
// profile uses: sample types, samples, locations with their (possibly
// inlined) lines, functions and the string table.
func decodeProfile(raw []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err = walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, st := range sampleTypes {
		if str(st[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		if len(samples) == 0 {
			return nil, nil
		}
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample lacks a CPU value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, profSample{stack: stack, nanos: s.values[cpu]})
	}
	return out, nil
}

// walkFields iterates the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds the
// payload. Fixed-width fields are skipped.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
