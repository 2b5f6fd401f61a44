package policy

import (
	"math/bits"
	"slices"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// bitset is a growable bit vector holding a baseline's page Accessed bits,
// one per page id: 8× denser than []bool, with word-at-a-time range fills,
// clears and scans for TMO's idle walk. The zero value is an empty set.
//
// words is never shortened, and the spare capacity slices.Grow adds comes
// zeroed, so every word past len(words) is zero: growth only extends the
// length.
type bitset struct {
	words []uint64
}

// grow ensures capacity for bit i. It lengthens the slice in place when
// capacity suffices (appending a made slice would still allocate under race
// instrumentation); the new words are already zero.
func (b *bitset) grow(i int) {
	if need, n := i/64+1, len(b.words); n < need {
		b.words = slices.Grow(b.words, need-n)[:need]
	}
}

// Reserve sets the capacity to address bits [0, n) so later growth up to n
// bits reuses one allocation. It changes no bit and no observable length:
// words beyond the current length still read as zero.
func (b *bitset) Reserve(n int) {
	if need := (n + 63) / 64; need > len(b.words) {
		b.words = slices.Grow(b.words, need-len(b.words))
	}
}

// reserveSegments sizes b for the pages of v's runtime and init segments,
// which the platform allocates first, runtime then init, so setting their
// bits as each is allocated costs one allocation.
func (b *bitset) reserveSegments(v View) {
	s, prof := v.Space(), v.Profile()
	b.Reserve(s.PagesOf(prof.RuntimeBytes) + s.PagesOf(prof.InitBytes))
}

// setPages sets the bits of the pages of r.
func (b *bitset) setPages(r pagemem.Range) { b.SetRange(int(r.Start), int(r.End)) }

// Clear clears bit i (no-op beyond current capacity).
func (b *bitset) Clear(i int) {
	if w := i / 64; w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) % 64)
	}
}

// Get reports bit i (false beyond current capacity).
func (b *bitset) Get(i int) bool {
	w := i / 64
	return w < len(b.words) && b.words[w]&(1<<(uint(i)%64)) != 0
}

// SetRange sets bits [start, end): it ORs a head mask into the first word,
// fills the words between and ORs a tail mask into the last.
func (b *bitset) SetRange(start, end int) {
	if end <= start {
		return
	}
	b.grow(end - 1)
	w0, w1 := start/64, (end-1)/64
	head := ^uint64(0) << (uint(start) % 64)
	tail := ^uint64(0) >> (63 - uint(end-1)%64)
	if w0 == w1 {
		b.words[w0] |= head & tail
		return
	}
	b.words[w0] |= head
	mid := b.words[w0+1 : w1]
	for i := range mid {
		mid[i] = ^uint64(0)
	}
	b.words[w1] |= tail
}

// ClearRange clears bits [start, end), treating bits beyond the current
// capacity as already clear.
func (b *bitset) ClearRange(start, end int) {
	end = min(end, len(b.words)*64)
	if end <= start {
		return
	}
	w0, w1 := start/64, (end-1)/64
	head := ^uint64(0) << (uint(start) % 64)
	tail := ^uint64(0) >> (63 - uint(end-1)%64)
	if w0 == w1 {
		b.words[w0] &^= head & tail
		return
	}
	b.words[w0] &^= head
	clear(b.words[w0+1 : w1])
	b.words[w1] &^= tail
}

// next returns the first bit in [i, end) that is set (set true) or clear,
// or end when there is none. It scans the stored words up to end a word at
// a time; every bit past them is clear.
func (b *bitset) next(i, end int, set bool) int {
	if i >= end {
		return end
	}
	flip := ^uint64(0)
	if set {
		flip = 0
	}
	words := b.words[:min(len(b.words), (end+63)/64)]
	if w := i / 64; w < len(words) {
		if m := (words[w] ^ flip) >> (uint(i) % 64); m != 0 {
			return min(i+bits.TrailingZeros64(m), end)
		}
		for w++; w < len(words); w++ {
			if m := words[w] ^ flip; m != 0 {
				return min(w*64+bits.TrailingZeros64(m), end)
			}
		}
		i = len(words) * 64
	}
	if set || i >= end {
		return end
	}
	return i
}
