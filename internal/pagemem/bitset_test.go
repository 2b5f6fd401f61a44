package pagemem

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// CountRange returns the number of set bits in [start, end) — the
// per-bit-range count the tests check bitsets with.
func (b *Bitset) CountRange(start, end int) int {
	if end <= start || len(b.words) == 0 {
		return 0
	}
	if max := len(b.words) * 64; end > max {
		end = max
	}
	if start >= end {
		return 0
	}
	n := 0
	for i := start; i < end; {
		w := i / 64
		lo := uint(i) % 64
		hi := uint(64)
		if end-(w*64) < 64 {
			hi = uint(end - w*64)
		}
		mask := (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
		n += bits.OnesCount64(b.words[w] & mask)
		i = (w + 1) * 64
	}
	return n
}

func TestBitsetSetGetClear(t *testing.T) {
	var b Bitset
	if b.Get(0) || b.Get(1000) {
		t.Fatal("empty bitset has set bits")
	}
	b.Set(5)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{5, 64, 129} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(6) || b.Get(63) || b.Get(65) {
		t.Fatal("neighbouring bits leaked")
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("clear failed")
	}
	b.Clear(1 << 20) // beyond capacity is a no-op
}

// TestBitsetReserve checks that Reserve keeps every bit, leaves the bits
// beyond the old length clear, and makes growth up to the reservation free.
func TestBitsetReserve(t *testing.T) {
	var b Bitset
	b.SetRange(3, 70)
	b.Reserve(1000)
	b.Reserve(10) // smaller than the capacity: a no-op
	if got := b.CountRange(0, 1000); got != 67 || !b.Get(3) || !b.Get(69) || b.Get(70) {
		t.Fatalf("Reserve changed bits: %d set", got)
	}
	if n := testing.AllocsPerRun(10, func() { b.Set(999); b.SetRange(100, 1000) }); n != 0 {
		t.Fatalf("growth within the reservation made %v allocations, want 0", n)
	}
	if got := b.CountRange(0, 1000); got != 67+900 {
		t.Fatalf("CountRange = %d, want %d", got, 67+900)
	}
}

func TestBitsetSetRange(t *testing.T) {
	var b Bitset
	b.SetRange(10, 140)
	for i := 0; i < 200; i++ {
		want := i >= 10 && i < 140
		if b.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, b.Get(i), want)
		}
	}
	if got := b.CountRange(0, 200); got != 130 {
		t.Fatalf("CountRange = %d, want 130", got)
	}
	b.SetRange(5, 5) // empty range is a no-op
}

// TestBitsetSetRangeEdges checks the head/middle/tail fill of SetRange, and
// then the same clear of ClearRange, against a per-bit reference on a
// bitset already holding scattered bits: ranges starting or ending on a word
// boundary, inside one word, over two adjacent words, and across 64 words.
func TestBitsetSetRangeEdges(t *testing.T) {
	cases := []struct{ start, end int }{
		{64, 100},    // starts on a word boundary
		{10, 128},    // ends on a word boundary
		{64, 192},    // both on word boundaries
		{70, 80},     // inside one word
		{64, 128},    // exactly one word
		{63, 64},     // last bit of a word
		{60, 70},     // two adjacent words
		{0, 128},     // two whole words
		{4000, 8300}, // across 64 words
		{4095, 4097}, // the 64th word boundary itself
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(int64(c.start)))
		var b Bitset
		ref := make([]bool, 8448)
		for i := 0; i < 200; i++ {
			k := rng.Intn(len(ref))
			b.Set(k)
			ref[k] = true
		}
		b.SetRange(c.start, c.end)
		for i := c.start; i < c.end; i++ {
			ref[i] = true
		}
		if len(b.words)*64 < c.end {
			t.Fatalf("SetRange(%d, %d): capacity %d bits", c.start, c.end, len(b.words)*64)
		}
		for i := range ref {
			if b.Get(i) != ref[i] {
				t.Fatalf("SetRange(%d, %d): bit %d = %v, want %v", c.start, c.end, i, b.Get(i), ref[i])
			}
		}
		b.ClearRange(c.start, c.end)
		for i := c.start; i < c.end; i++ {
			ref[i] = false
		}
		for i := range ref {
			if b.Get(i) != ref[i] {
				t.Fatalf("ClearRange(%d, %d): bit %d = %v, want %v", c.start, c.end, i, b.Get(i), ref[i])
			}
		}
	}
}

func TestBitsetClearRange(t *testing.T) {
	var b Bitset
	b.SetRange(0, 256)
	b.ClearRange(60, 70)
	if got := b.CountRange(0, 256); got != 246 {
		t.Fatalf("count after clear = %d, want 246", got)
	}
	if b.Get(60) || b.Get(69) {
		t.Fatal("range not cleared")
	}
	if !b.Get(59) || !b.Get(70) {
		t.Fatal("clear overshot")
	}
	b.ClearRange(1000, 2000) // beyond capacity clamps
}

func TestBitsetForEachSet(t *testing.T) {
	var b Bitset
	for _, i := range []int{3, 64, 65, 200} {
		b.Set(i)
	}
	var got []int
	b.ForEachSet(0, 256, func(i int) { got = append(got, i) })
	want := []int{3, 64, 65, 200}
	if len(got) != len(want) {
		t.Fatalf("ForEachSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachSet = %v, want %v", got, want)
		}
	}
	// Sub-range respects boundaries.
	got = got[:0]
	b.ForEachSet(64, 66, func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 64 || got[1] != 65 {
		t.Fatalf("sub-range = %v", got)
	}
}

// Property: Bitset agrees with a reference map under random operations.
func TestBitsetMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Bitset
		ref := map[int]bool{}
		const n = 512
		for op := 0; op < 500; op++ {
			switch rng.Intn(5) {
			case 0:
				i := rng.Intn(n)
				b.Set(i)
				ref[i] = true
			case 1:
				i := rng.Intn(n)
				b.Clear(i)
				delete(ref, i)
			case 2:
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				b.SetRange(lo, hi)
				for i := lo; i < hi; i++ {
					ref[i] = true
				}
			case 3:
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				b.ClearRange(lo, hi)
				for i := lo; i < hi; i++ {
					delete(ref, i)
				}
			case 4:
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				if b.CountRange(lo, hi) != countRef(ref, lo, hi) {
					return false
				}
				// next finds the first set and the first clear bit of
				// [lo, hi), or hi.
				for _, set := range []bool{true, false} {
					want := lo
					for want < hi && ref[want] != set {
						want++
					}
					if b.next(lo, hi, set) != want {
						return false
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		// ForEachSet visits exactly the reference set, in order.
		prev := -1
		ok := true
		b.ForEachSet(0, n, func(i int) {
			if !ref[i] || i <= prev {
				ok = false
			}
			prev = i
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func countRef(ref map[int]bool, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if ref[i] {
			n++
		}
	}
	return n
}

func TestSpaceCountAccessed(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegInit, 100)
	if got := s.CountAccessed(r); got != 100 {
		t.Fatalf("fresh pages accessed = %d, want 100", got)
	}
	s.ScanAndClear(r, nil)
	if got := s.CountAccessed(r); got != 0 {
		t.Fatalf("after scan = %d, want 0", got)
	}
	s.Touch(r.Start + 7)
	if got := s.CountAccessed(r); got != 1 {
		t.Fatalf("after touch = %d, want 1", got)
	}
}

func BenchmarkBitsetScan(b *testing.B) {
	var bs Bitset
	bs.SetRange(0, 1<<18) // 256k pages = 1 GiB container
	bs.ClearRange(1<<17, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		bs.ForEachSet(0, 1<<18, func(int) { n++ })
		if n != 1<<17 {
			b.Fatal("wrong count")
		}
	}
}
