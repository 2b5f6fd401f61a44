package main

import (
	"context"
	"runtime/pprof"
	"sort"
	"time"
)

// The calibration kernel measures how fast this host runs right now, so that
// host times can be rescaled to a fixed reference speed. On a shared 2-vCPU
// machine, neighbours slow the vCPU (cache, memory and frequency contention)
// rather than preempt it: raw job times swing by a quarter to a third
// between runs minutes apart, while steal time stays near zero.
//
// The kernel has four parts of roughly equal time, each standing for a cost
// the simulator pays: a hash-driven walk over a 16 MB table (cache and
// memory latency), data-dependent branches (branch prediction), Go map
// updates, and a sort. Against the simulator's own slowdowns, their sum
// tracked better than any one part: over 15-second windows the spread of
// normalised time was about a third of the raw spread. The kernel allocates
// nothing after newKernel, so it does not disturb the garbage collector.
const (
	walkWords   = 4 << 20 // uint32 entries: 16 MB
	walkSteps   = 2_000
	branchSteps = 60_000
	mapKeys     = 1 << 16
	mapSteps    = 4_500
	sortLen     = 6_000
)

type kernel struct {
	walk     []uint32
	branches []uint8
	m        map[uint64]uint64
	keys     []uint64
	src, dst []int
	h        uint64
	sink     uint64
}

func newKernel() *kernel {
	k := &kernel{
		walk:     make([]uint32, walkWords),
		branches: make([]uint8, 1<<14),
		m:        make(map[uint64]uint64, mapKeys),
		keys:     make([]uint64, mapKeys),
		src:      make([]int, sortLen),
		dst:      make([]int, sortLen),
		h:        1,
	}
	x := uint64(0)
	next := func() uint64 { x += 0x9e3779b97f4a7c15; return mix(x) }
	for i := range k.walk {
		k.walk[i] = uint32(next())
	}
	for i := range k.branches {
		k.branches[i] = uint8(next())
	}
	for i := range k.keys {
		k.keys[i] = next()
		k.m[k.keys[i]] = 0
	}
	for i := range k.src {
		k.src[i] = int(next() >> 1)
	}
	return k
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// run times one pass of the kernel. Each pass resumes the previous pass's
// hash state, so consecutive passes touch different parts of the tables.
func (k *kernel) run() time.Duration {
	start := time.Now()
	h := k.h
	for i := 0; i < walkSteps; i++ {
		h = mix(h ^ uint64(k.walk[h&(walkWords-1)]))
	}
	var acc uint64
	for i := 0; i < branchSteps; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		switch v := k.branches[(h>>40)&uint64(len(k.branches)-1)]; {
		case v&1 == 0:
			acc += uint64(v)
		case v&2 == 0:
			acc ^= h
		default:
			acc -= 3
		}
	}
	for i := 0; i < mapSteps; i++ {
		h = mix(h + 1)
		k.m[k.keys[h%mapKeys]] += h
	}
	copy(k.dst, k.src)
	sort.Ints(k.dst)
	k.h = h
	k.sink += acc + uint64(k.dst[sortLen/2])
	return time.Since(start)
}

// speedFactor converts a host time measured between two kernel passes to
// the reference host: multiply by ref / mean(before, after).
func speedFactor(ref, before, after time.Duration) float64 {
	return float64(ref) / (float64(before+after) / 2)
}

// meter times pieces of work with a kernel pass right after each one, so
// every piece sits between two passes. Kernel passes carry a profiler
// label, so the traced run can leave them out of the CPU profile.
type meter struct {
	k    *kernel
	ref  time.Duration
	last time.Duration
	cal  []float64 // every pass, in ms

	calLabels, noLabels context.Context
}

func newMeter(ref time.Duration) *meter {
	m := &meter{k: newKernel(), ref: ref, noLabels: context.Background()}
	m.calLabels = pprof.WithLabels(m.noLabels, pprof.Labels("bench", "calibration"))
	m.last = m.pass()
	return m
}

func (m *meter) pass() time.Duration {
	pprof.SetGoroutineLabels(m.calLabels)
	d := m.k.run()
	pprof.SetGoroutineLabels(m.noLabels)
	return d
}

// time runs fn and returns its raw host time and the factor that
// normalises it.
func (m *meter) time(fn func()) (raw time.Duration, factor float64) {
	start := time.Now()
	fn()
	raw = time.Since(start)
	after := m.pass()
	factor = speedFactor(m.ref, m.last, after)
	m.last = after
	m.cal = append(m.cal, float64(after)/1e6)
	return raw, factor
}
