package lazyrand

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// compare draws n values from got and from math/rand at seed, cycling
// through every Rand method whose stream the simulator reads, and fails on
// the first difference.
func compare(t testing.TB, seed int64, n int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := range n {
		var g, w any
		switch i % 8 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Intn(1000), want.Intn(1000)
		case 3:
			g, w = got.Int63n(1<<40+7), want.Int63n(1<<40+7)
		case 4:
			g, w = got.Float64(), want.Float64()
		case 5:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 6:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 7:
			g, w = got.Int31n(7), want.Int31n(7)
		}
		if g != w {
			t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, i, g, w)
		}
	}
}

// TestStreamsMatchMathRand runs well past the 607-word state, so every word
// is read both lazily and after it has been fed back.
func TestStreamsMatchMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -1, int32max, int32max - 1, 2 * int32max, 1 << 40, math.MaxInt64, math.MinInt64} {
		compare(t, seed, 5000)
	}
}

// TestReseed checks that Rand.Seed restarts the stream as math/rand's, to
// the same or another seed: before the first draw (no state allocated yet),
// while fresh words remain, and after every word has been computed and fed
// back.
func TestReseed(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		want := rand.New(rand.NewSource(seed))
		for _, drawn := range []int{0, 5, 300, 1000} {
			r := New(7)
			for range drawn {
				r.Int63()
			}
			r.Seed(seed)
			want.Seed(seed)
			for i := range 1000 {
				if g, w := r.Int63(), want.Int63(); g != w {
					t.Fatalf("draw %d after %d draws and a reseed to %d: got %d, math/rand %d", i, drawn, seed, g, w)
				}
			}
		}
	}
}

// sink keeps the generators TestUndrawnIsSmall builds on the heap.
var sink *rand.Rand

// TestUndrawnIsSmall checks that a generator nothing draws from holds no
// state array: its two structs, well under 1 KB, where the first draw
// allocates 4,856 bytes.
func TestUndrawnIsSmall(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sink = New(42) }); n > 2 {
		t.Fatalf("New allocates %.0f objects, want at most 2", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		sink = New(int64(i))
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 1024 {
		t.Fatalf("an undrawn New allocates %d B, want under 1 KB", b)
	}
}

// FuzzSourceMatchesMathRand holds the lazy source to math/rand's stream
// for any seed and up to a few thousand draws.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, -42, int32max, -int32max, 3 * int32max, int32max - 1, 1 << 40, math.MaxInt64, math.MinInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compare(t, seed, int(n%4096))
	})
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		New(int64(i)).Int63()
	}
}

func BenchmarkMathRandNew(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		rand.New(rand.NewSource(int64(i))).Int63()
	}
}
