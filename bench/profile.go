package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The traced run buckets CPU-profile samples by the package of their leaf
// frame: every internal/<pkg> of the module is its own bucket (all of
// internal/telemetry/... is one), the Go runtime is split into garbage
// collection, allocation, maps and the rest, and everything else is this
// benchmark, the standard library, or other. The buckets are listed so the
// per-layer metric names are fixed and their shares sum to 100.
var cpuBuckets = []string{
	"pagemem", "mglru", "core", "policy", "faas", "simtime", "rmem", "memnode",
	"cluster", "cgroup", "fastswap", "sharedmem", "trace", "workload",
	"metrics", "experiments", "faultinject", "telemetry", "gateway",
	"drilldown", "report",
	"bench", "runtime_gc", "runtime_alloc", "runtime_map", "runtime_other",
	"std", "other",
}

const modulePrefix = "github.com/faasmem/faasmem/"

// bucketOf maps a profiled function name to its bucket.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, modulePrefix+"internal/"):
		pkg := fn[len(modulePrefix+"internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if slices.Contains(cpuBuckets, pkg) {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, modulePrefix+"bench."):
		return "bench" // the package is main in the binary, its path in tests
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"):
		return runtimeBucket(fn)
	case strings.HasPrefix(fn, modulePrefix):
		return "other"
	}
	return "std"
}

// runtimeBucket splits runtime frames. Allocation is checked first because
// mallocgc's name contains "gc"; GC assists stay with the collector.
func runtimeBucket(fn string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("malloc"):
		return "runtime_alloc"
	case has("gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "wbBuf",
		"Barrier", "greyobject", "findObject", "spanOf", "heapBits",
		"typePointers", "shade", "gcWork"):
		return "runtime_gc"
	case has("alloc", "Alloc", "newobject", "newarray", "makeslice", "growslice",
		"mcache", "mcentral", "nextFree", "memclrNoHeapPointers", "heapSetType",
		"refill", "cacheSpan", "rawstring", "rawbyteslice", "makemap"):
		return "runtime_alloc"
	case has("runtime.map", "internal/runtime/maps.", "hash", "runtime.efaceeq",
		"runtime.strequal", "runtime.memequal"):
		return "runtime_map"
	}
	return "runtime_other"
}

// bucketSamples decodes a gzipped pprof CPU profile and adds each sample's
// count to the bucket of its leaf frame (the innermost, possibly inlined,
// function of the first location). Labelled samples are the calibration
// kernel's (see meter) and are left out.
func bucketSamples(profile []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id → leaf function id
	funcName := map[uint64]int64{} // function id → string table index
	var strs []string

	err = fields(raw, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			labelled := false
			err := fields(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendRepeated(locs, v, b)
				case 2:
					vals = appendRepeated(vals, v, b)
				case 3:
					labelled = true
				}
				return nil
			})
			if err != nil || labelled || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			s.leaf, s.count = locs[0], int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			first := true
			err := fields(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if first {
						first = false
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && i < int64(len(strs)) {
			name = strs[i]
		}
		into[bucketOf(name)] += s.count
	}
	return nil
}

// appendRepeated adds a repeated varint field's values, packed or not.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number and
// either its varint value (b nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
