package hist

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The oracle: the timeline's original per-cell bucket code (point.quantile,
// bucketOf, bucketUpper), kept verbatim as the reference Buckets must match.

// nBuckets spans every positive int64: bucket i holds values whose bit
// length is i, i.e. [2^(i-1), 2^i). Bucket 0 holds zero.
const nBuckets = 65

// point is the slice of the timeline cell the oracle reads.
type point struct {
	count   int64
	max     int64
	buckets *[nBuckets]int64 // Sample series only
}

// quantile estimates quantile q (0..1] from the bucket histogram as the
// upper edge of the bucket where the cumulative count crosses q·count,
// clamped to the window's observed max. Deterministic and bounded, which is
// what a per-window P99 on the DES hot path needs.
func (p *point) quantile(q float64) int64 {
	if p.buckets == nil || p.count == 0 {
		return p.max
	}
	rank := int64(q * float64(p.count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < nBuckets; i++ {
		cum += p.buckets[i]
		if cum >= rank {
			edge := bucketUpper(i)
			if edge > p.max {
				return p.max
			}
			return edge
		}
	}
	return p.max
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the inclusive upper edge of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// edgeValues are the inputs where bucket code goes wrong first: zero, one,
// every power of two and its neighbours, and the int64 extremes.
func edgeValues() []int64 {
	vs := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, math.MaxInt64 - 1}
	for i := 1; i < 63; i++ {
		p := int64(1) << i
		vs = append(vs, p-1, p, p+1)
	}
	return vs
}

func TestIndexAndUpperMatchOracle(t *testing.T) {
	vs := edgeValues()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vs = append(vs, rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vs {
		if got, want := Index(v), bucketOf(v); got != want {
			t.Fatalf("Index(%d) = %d, oracle %d", v, got, want)
		}
		if v > 0 && v > Upper(Index(v)) {
			t.Fatalf("%d lies above its bucket's upper edge %d", v, Upper(Index(v)))
		}
	}
	for i := -1; i <= N; i++ {
		if got, want := Upper(i), bucketUpper(i); got != want {
			t.Fatalf("Upper(%d) = %d, oracle %d", i, got, want)
		}
	}
}

func TestQuantileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := edgeValues()
	qs := []float64{0, 0.001, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 2000; trial++ {
		var b Buckets
		p := point{buckets: new([nBuckets]int64)}
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(3) {
			case 0:
				v = edges[rng.Intn(len(edges))]
			case 1:
				v = rng.Int63() >> rng.Intn(63)
			default:
				v = rng.Int63n(1 << 34) // request-latency scale, up to ~17 s
			}
			b.Observe(v)
			p.buckets[bucketOf(v)]++
			if p.count == 0 || v > p.max {
				p.max = v
			}
			p.count++
		}
		if *p.buckets != b {
			t.Fatalf("trial %d: Observe disagrees with the oracle's bucketing", trial)
		}
		for _, q := range qs {
			if got, want := b.Quantile(q, p.count, p.max), p.quantile(q); got != want {
				t.Fatalf("trial %d: Quantile(%v) = %d, oracle %d", trial, q, got, want)
			}
		}
	}
	// A missing histogram or an empty one reads as the max, as before.
	var nilB *Buckets
	if got := nilB.Quantile(0.99, 3, 42); got != 42 {
		t.Fatalf("nil Quantile = %d, want the max 42", got)
	}
	if got := new(Buckets).Quantile(0.99, 0, 7); got != 7 {
		t.Fatalf("empty Quantile = %d, want the max 7", got)
	}
}

func TestMergeAddsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, both Buckets
	for i := 0; i < 1000; i++ {
		v := rng.Int63() >> rng.Intn(63)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	a.Merge(&b)
	if a != both {
		t.Fatal("merged buckets differ from observing every value into one")
	}
}
