// Package trace models serverless invocation traces shaped like the Azure
// Functions Invocation Trace 2021 the paper evaluates on (424 functions,
// ~1.98 M invocations). The real trace is not redistributable, so this
// package provides a calibrated synthetic generator plus the analytics the
// paper derives from the trace: cold-start ratio and memory-inactive time
// under a keep-alive policy (Fig. 1), requests handled per container
// (Fig. 5), each function's last 512 container reused intervals (semi-warm
// timing, §6.1), and high/medium/low load classification (§8.4).
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// Function is one serverless function's invocation timeline.
type Function struct {
	// ID identifies the function (anonymized hashes in the Azure trace).
	ID string `json:"id"`
	// Invocations are firing timestamps since trace start, sorted ascending.
	Invocations []simtime.Time `json:"invocations"`
}

// DailyRate returns the average invocations per day over the window d.
func (f *Function) DailyRate(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(len(f.Invocations)) / d.Hours() * 24
}

// LoadClass buckets functions by average daily invocations, matching the
// paper's §8.4 split: high (> 512), low (< 64), medium between.
type LoadClass int

const (
	// LowLoad functions fire fewer than 64 times per day.
	LowLoad LoadClass = iota
	// MediumLoad functions fire between 64 and 512 times per day.
	MediumLoad
	// HighLoad functions fire more than 512 times per day.
	HighLoad
)

// String implements fmt.Stringer.
func (c LoadClass) String() string {
	switch c {
	case LowLoad:
		return "low"
	case MediumLoad:
		return "medium"
	case HighLoad:
		return "high"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classify returns the load class of a daily invocation rate.
func Classify(dailyRate float64) LoadClass {
	switch {
	case dailyRate > 512:
		return HighLoad
	case dailyRate < 64:
		return LowLoad
	default:
		return MediumLoad
	}
}

// Class returns the function's load class over window d.
func (f *Function) Class(d time.Duration) LoadClass { return Classify(f.DailyRate(d)) }

// IntervalStats describes the gaps between consecutive invocations.
type IntervalStats struct {
	Mean   time.Duration
	Stddev time.Duration
}

// Intervals computes inter-arrival statistics; zero for fewer than two
// invocations.
func (f *Function) Intervals() IntervalStats {
	n := len(f.Invocations) - 1
	if n < 1 {
		return IntervalStats{}
	}
	var sum float64
	gaps := make([]float64, n)
	for i := 0; i < n; i++ {
		g := (f.Invocations[i+1] - f.Invocations[i]).Seconds()
		gaps[i] = g
		sum += g
	}
	mean := sum / float64(n)
	var varsum float64
	for _, g := range gaps {
		d := g - mean
		varsum += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varsum / float64(n))
	}
	return IntervalStats{
		Mean:   time.Duration(mean * float64(time.Second)),
		Stddev: time.Duration(std * float64(time.Second)),
	}
}

// RequestsPerMinute returns the average request rate over window d.
func (f *Function) RequestsPerMinute(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(len(f.Invocations)) / d.Minutes()
}

// Trace is a set of function timelines over a common window.
type Trace struct {
	// Duration is the trace window; invocations fall in [0, Duration).
	Duration time.Duration `json:"duration"`
	// Functions holds each function's timeline.
	Functions []*Function `json:"functions"`
}

// TotalInvocations sums invocations across all functions.
func (t *Trace) TotalInvocations() int {
	n := 0
	for _, f := range t.Functions {
		n += len(f.Invocations)
	}
	return n
}

// ByClass partitions function indices by load class.
func (t *Trace) ByClass() map[LoadClass][]*Function {
	m := make(map[LoadClass][]*Function)
	for _, f := range t.Functions {
		c := f.Class(t.Duration)
		m[c] = append(m[c], f)
	}
	return m
}

// Validate checks structural invariants: sorted, in-window timestamps and
// unique IDs. It returns the first problem found.
func (t *Trace) Validate() error {
	if t.Duration <= 0 {
		return fmt.Errorf("trace: non-positive duration %v", t.Duration)
	}
	seen := make(map[string]bool, len(t.Functions))
	for _, f := range t.Functions {
		if f.ID == "" {
			return fmt.Errorf("trace: function with empty ID")
		}
		if seen[f.ID] {
			return fmt.Errorf("trace: duplicate function ID %q", f.ID)
		}
		seen[f.ID] = true
		if !sort.SliceIsSorted(f.Invocations, func(i, j int) bool {
			return f.Invocations[i] < f.Invocations[j]
		}) {
			return fmt.Errorf("trace: function %q invocations not sorted", f.ID)
		}
		for _, at := range f.Invocations {
			if at < 0 || at >= t.Duration {
				return fmt.Errorf("trace: function %q invocation %v outside [0, %v)", f.ID, at, t.Duration)
			}
		}
	}
	return nil
}
