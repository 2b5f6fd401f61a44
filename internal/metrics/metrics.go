// Package metrics provides the statistical primitives the evaluation relies
// on: latency percentile samplers, empirical CDFs, bounded reuse histories,
// and time-weighted series for memory-usage timelines.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// Sampler collects float64 observations and answers percentile queries.
// The zero value is ready to use.
type Sampler struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sampler) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddDuration records a duration observation in seconds.
func (s *Sampler) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Merge adds every observation of other to s.
func (s *Sampler) Merge(other *Sampler) {
	s.values = append(s.values, other.values...)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sampler) Count() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sampler) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

func (s *Sampler) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between closest ranks; Percentile(0) is the smallest
// observation and Percentile(100) the largest. It returns 0 with no observations and
// panics on an out-of-range p.
func (s *Sampler) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	if len(s.values) == 1 {
		return s.values[0]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// P50, P95 and P99 are the percentiles the paper reports.
func (s *Sampler) P50() float64 { return s.Percentile(50) }

// P95 returns the 95th percentile.
func (s *Sampler) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile.
func (s *Sampler) P99() float64 { return s.Percentile(99) }

// CDF returns the empirical distribution as (value, cumulative fraction)
// points, one per distinct observation.
func (s *Sampler) CDF() []CDFPoint {
	if len(s.values) == 0 {
		return nil
	}
	s.sort()
	var pts []CDFPoint
	n := float64(len(s.values))
	for i := 0; i < len(s.values); i++ {
		// Collapse runs of equal values to the final cumulative fraction.
		if i+1 < len(s.values) && s.values[i+1] == s.values[i] {
			continue
		}
		pts = append(pts, CDFPoint{Value: s.values[i], Fraction: float64(i+1) / n})
	}
	return pts
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// recentCap is how many durations a Recent keeps.
const recentCap = 512

// Recent keeps the last 512 durations pushed, in a ring, and answers rank
// queries over them: the one record of container reused intervals (§6.1),
// for the offline profile, semi-warm timing and adaptive keep-alive. The
// first Percentile builds a sorted mirror, which each later Push keeps
// current with one shifted copy. The zero value is ready to use; an
// assigned copy shares storage with its source, a Clone does not.
type Recent struct {
	ring   []time.Duration // full at 512; then ring[head] is the oldest
	head   int
	sorted []time.Duration // ring in ascending order; nil until a Percentile
}

// Push records d, dropping the oldest duration once 512 are kept.
func (r *Recent) Push(d time.Duration) {
	if len(r.ring) < recentCap {
		r.ring = append(r.ring, d)
		if r.sorted != nil {
			i, _ := slices.BinarySearch(r.sorted, d)
			r.sorted = slices.Insert(r.sorted, i, d)
		}
		return
	}
	old := r.ring[r.head]
	r.ring[r.head] = d
	if r.head++; r.head == recentCap {
		r.head = 0
	}
	if r.sorted == nil {
		return
	}
	i, _ := slices.BinarySearch(r.sorted, old)
	j, _ := slices.BinarySearch(r.sorted, d)
	if j <= i {
		copy(r.sorted[j+1:i+1], r.sorted[j:i])
		r.sorted[j] = d
	} else {
		copy(r.sorted[i:j-1], r.sorted[i+1:j])
		r.sorted[j-1] = d
	}
}

// Len returns how many durations are kept, at most 512.
func (r *Recent) Len() int { return len(r.ring) }

// Percentile returns the kept duration of ascending rank ⌊p/100·(Len−1)⌋,
// without interpolating; 0 when nothing is kept. It panics on a p outside
// [0, 100].
func (r *Recent) Percentile(p float64) time.Duration {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	if len(r.ring) == 0 {
		return 0
	}
	if r.sorted == nil {
		r.sorted = slices.Clone(r.ring)
		slices.Sort(r.sorted)
	}
	return r.sorted[int(p/100*float64(len(r.sorted)-1))]
}

// Clone returns a copy of r that shares no storage with it.
func (r *Recent) Clone() Recent {
	return Recent{ring: slices.Clone(r.ring), head: r.head, sorted: slices.Clone(r.sorted)}
}

// TimeWeighted tracks a piecewise-constant quantity over virtual time (for
// example a container's local memory bytes) and reports its time-weighted
// average and peak. The zero value is NOT ready; construct with
// NewTimeWeighted so the start time is pinned.
type TimeWeighted struct {
	start   simtime.Time
	last    simtime.Time
	current float64
	area    float64 // integral of value dt (in value·seconds)
	peak    float64
}

// NewTimeWeighted starts tracking at start with the given initial value.
func NewTimeWeighted(start simtime.Time, initial float64) *TimeWeighted {
	return &TimeWeighted{start: start, last: start, current: initial, peak: initial}
}

// Set updates the tracked value at virtual time now. Updates must be
// non-decreasing in time; an out-of-order update panics since it corrupts
// the integral.
func (t *TimeWeighted) Set(now simtime.Time, v float64) {
	if now < t.last {
		panic(fmt.Sprintf("metrics: time-weighted update at %v before %v", now, t.last))
	}
	t.area += t.current * (now - t.last).Seconds()
	t.last = now
	t.current = v
	if v > t.peak {
		t.peak = v
	}
}

// Add adjusts the tracked value by delta at time now.
func (t *TimeWeighted) Add(now simtime.Time, delta float64) {
	t.Set(now, t.current+delta)
}

// Current returns the present value.
func (t *TimeWeighted) Current() float64 { return t.current }

// Peak returns the maximum value seen.
func (t *TimeWeighted) Peak() float64 { return t.peak }

// Average returns the time-weighted mean over [start, now]. With zero
// elapsed time it returns the current value.
func (t *TimeWeighted) Average(now simtime.Time) float64 {
	if now <= t.start {
		return t.current
	}
	area := t.area + t.current*(now-t.last).Seconds()
	return area / (now - t.start).Seconds()
}

// Series records (time, value) samples for timeline figures (Fig. 6, 13).
type Series struct {
	Times  []simtime.Time
	Values []float64
}

// Append adds one sample.
func (s *Series) Append(at simtime.Time, v float64) {
	s.Times = append(s.Times, at)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// MB converts bytes to megabytes (10^6) for display parity with the paper.
func MB(bytes int64) float64 { return float64(bytes) / 1e6 }
