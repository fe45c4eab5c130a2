package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profPackages maps the prof.* metrics to the packages whose functions'
// flat CPU samples they count.
var profPackages = map[string]string{
	"sharedicache/internal/frontend.":     "prof.frontend",
	"sharedicache/internal/core.":         "prof.core",
	"sharedicache/internal/backend.":      "prof.backend",
	"sharedicache/internal/interconnect.": "prof.interconnect",
	"sharedicache/internal/cachesim.":     "prof.cachesim",
	"sharedicache/internal/memsys.":       "prof.memsys",
	"sharedicache/internal/synth.":        "prof.synth",
	"sharedicache/internal/runstore.":     "prof.runstore",
	"sharedicache/internal/sweep.":        "prof.sweep",
	"sharedicache/internal/campaignd.":    "prof.campaignd",
	"syscall.":                            "prof.syscall",
	"internal/runtime/syscall.":           "prof.syscall",
}

// gcFuncs are the runtime functions whose flat samples count as
// garbage collection (prof.runtime_gc).
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.markroot", "runtime.greyobject", "runtime.findObject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.wbBufFlush",
	"runtime.gcAssistAlloc", "runtime.gcMarkDone", "runtime.gcStart", "runtime.(*gcWork)",
	"runtime.(*mspan).sweep", "runtime.(*mspan).typePointersOf", "runtime.typePointers",
	"runtime.(*gcBits)", "runtime.spanOf", "runtime.heapBits", "runtime.(*mheap).reclaim",
	"runtime.(*sweepLocked)", "runtime.(*scavengerState)", "runtime.gcmarknewobject",
}

// syscallFuncs are runtime functions that are system calls themselves.
var syscallFuncs = []string{"runtime.futex", "runtime.epollwait", "runtime.write1", "runtime.read", "runtime.usleep", "runtime.madvise", "runtime.mmap", "runtime.munmap", "runtime.nanotime1"}

// packageShares reads a CPU profile and returns, for every prof.*
// metric, its packages' share of all CPU samples, attributing each
// sample to the innermost function (flat time). Every prof.* metric is
// present, zero when its packages never appeared; the shares are of
// disjoint sample sets, so they sum to at most 1.
func packageShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	flat, total, err := flatByFunction(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	shares := map[string]float64{"prof.runtime_gc": 0}
	for _, name := range profPackages {
		shares[name] = 0
	}
	if total == 0 {
		return shares, nil
	}
	for fn, v := range flat {
		if name := profMetric(fn); name != "" {
			shares[name] += float64(v) / float64(total)
		}
	}
	return shares, nil
}

// profMetric names the prof.* metric fn's flat time counts toward, or
// "" for none.
func profMetric(fn string) string {
	for _, p := range gcFuncs {
		if strings.HasPrefix(fn, p) {
			return "prof.runtime_gc"
		}
	}
	for _, p := range syscallFuncs {
		if fn == p {
			return "prof.syscall"
		}
	}
	for prefix, name := range profPackages {
		if strings.HasPrefix(fn, prefix) {
			return name
		}
	}
	return ""
}

// flatByFunction decodes a gzipped pprof protobuf profile and sums the
// last sample value (CPU nanoseconds for a CPU profile) by the
// innermost function of each sample's leaf location.
func flatByFunction(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> name string index
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			leafSet := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					if len(ids) > 0 && !leafSet {
						s.leaf, leafSet = ids[0], true
					}
					return err
				case 2:
					xs, err := varints(w, v, b)
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			lineSet := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if lineSet {
						return nil
					}
					lineSet = true
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	flat := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		idx := funcName[locFunc[s.leaf]]
		if idx >= 0 && int(idx) < len(strs) {
			flat[strs[idx]] += s.value
		}
	}
	return flat, total, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either packed (wire type
// 2) or unpacked (one value) form.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
