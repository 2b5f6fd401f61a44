package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry/hist"
)

// The hist buckets a histogram exposes as `le` bounds: indices promLo to
// promHi, whose upper edges 2^i − 1 ns run from ≈1.05 ms to ≈17.2 s,
// spanning the 5 ms–10 s range request latencies are read in. Observations
// below the first edge count toward every bound; those above the last count
// only toward +Inf.
const (
	promLo = 20
	promHi = 34
)

// Histogram is a latency distribution metric over the power-of-two buckets
// of package hist, the same buckets the timeline's latency series keep. Like
// *Metric, a nil *Histogram (from a nil Registry) absorbs observations for
// free, so subsystems observe unconditionally.
type Histogram struct {
	name string
	help string

	mu      sync.Mutex
	buckets hist.Buckets
	sum     time.Duration
	count   int64
}

// Observe records one duration. No-op on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buckets.Observe(int64(d))
	h.sum += d
	h.count++
	h.mu.Unlock()
}

// HistBucket is one cumulative bucket of a histogram snapshot.
type HistBucket struct {
	// Upper is the bucket's inclusive upper bound in seconds (the `le`
	// label): hist.Upper of the bucket index, converted.
	Upper float64
	// Count is the cumulative count of observations <= Upper.
	Count int64
}

// HistSample is one histogram's state at snapshot time.
type HistSample struct {
	// Name and Help identify the histogram.
	Name string
	Help string
	// Buckets are cumulative, one per hist index promLo..promHi, excluding
	// +Inf (whose cumulative count is Count).
	Buckets []HistBucket
	// Sum is the sum of all observed values, in seconds.
	Sum float64
	// Count is the total number of observations.
	Count int64
}

// snapshot reads the histogram at one instant.
func (h *Histogram) snapshot() HistSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSample{Name: h.name, Help: h.help, Sum: h.sum.Seconds(), Count: h.count}
	s.Buckets = make([]HistBucket, 0, promHi-promLo+1)
	var cum int64
	for i, n := range h.buckets[:promHi+1] {
		cum += n
		if i >= promLo {
			s.Buckets = append(s.Buckets, HistBucket{Upper: time.Duration(hist.Upper(i)).Seconds(), Count: cum})
		}
	}
	return s
}

// Histogram returns the named histogram, creating it on first use.
// Registration is idempotent by name; re-registering a scalar metric's name
// as a histogram panics, matching the counter/gauge type-conflict rule.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as histogram, was %v", name, m.typ))
	}
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name, help: help}
	r.hists[name] = h
	r.histOrder = append(r.histOrder, h)
	return h
}

// HistSnapshot reads every histogram at one instant, sorted by name.
func (r *Registry) HistSnapshot() []HistSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make([]*Histogram, len(r.histOrder))
	copy(hists, r.histOrder)
	r.mu.Unlock()
	out := make([]HistSample, len(hists))
	for i, h := range hists {
		out[i] = h.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
