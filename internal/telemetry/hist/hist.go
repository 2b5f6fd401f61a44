// Package hist is the one latency histogram of the telemetry stack: a fixed
// array of power-of-two buckets over int64 values (nanoseconds, for
// latencies). The timeline keeps one per (series, window) for its P99s, and
// the registry keeps one per histogram metric, whose Prometheus `le` bounds
// are this package's bucket edges converted to seconds, so /metrics and the
// timeline read the same buckets.
//
// Bucket i holds the values whose bit length is i, i.e. [2^(i-1), 2^i), and
// bucket 0 holds zero and negatives. Observing is a bit-length lookup, and
// merging is element-wise addition, so per-window histograms fold into
// totals exactly.
package hist

import "math/bits"

// N is the bucket count: one per bit length of a non-negative int64, plus
// the zero bucket.
const N = 65

// Buckets counts observations per power-of-two bucket.
type Buckets [N]int64

// Index maps a value to its bucket.
func Index(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Upper is the inclusive upper edge of bucket i: 2^i − 1, saturating at the
// largest int64.
func Upper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Observe counts one value.
func (b *Buckets) Observe(v int64) { b[Index(v)]++ }

// Merge adds src's counts into b.
func (b *Buckets) Merge(src *Buckets) {
	for i, n := range src {
		b[i] += n
	}
}

// Quantile estimates quantile q (0..1] of count observations whose largest
// is max: the upper edge of the bucket where the cumulative count reaches
// q·count (at least 1), clamped to max. Deterministic and bounded, which is
// what a per-window P99 on the simulator's hot path needs. A nil b or a zero
// count yields max.
func (b *Buckets) Quantile(q float64, count, max int64) int64 {
	if b == nil || count == 0 {
		return max
	}
	rank := int64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range b {
		cum += n
		if cum >= rank {
			return min(Upper(i), max)
		}
	}
	return max
}
