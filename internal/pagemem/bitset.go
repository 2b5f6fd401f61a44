package pagemem

import (
	"math/bits"
	"slices"
)

// Bitset is a growable bit vector used for page access bits: 8× denser than
// []bool and word-at-a-time scans for the Accessed-bit walks every policy
// performs. The zero value is an empty set.
//
// words is never shortened, and the spare capacity slices.Grow adds comes
// zeroed, so every word past len(words) is zero: growth only extends the
// length.
type Bitset struct {
	words []uint64
}

// grow ensures capacity for bit i. It lengthens the slice in place when
// capacity suffices (appending a made slice would still allocate under race
// instrumentation); the new words are already zero.
func (b *Bitset) grow(i int) {
	if need, n := i/64+1, len(b.words); n < need {
		b.words = slices.Grow(b.words, need-n)[:need]
	}
}

// Reserve sets the capacity to address bits [0, n) so later growth up to n
// bits reuses one allocation. It changes no bit and no observable length:
// words beyond the current length still read as zero.
func (b *Bitset) Reserve(n int) {
	if need := (n + 63) / 64; need > len(b.words) {
		b.words = slices.Grow(b.words, need-len(b.words))
	}
}

// Clear clears bit i (no-op beyond current capacity).
func (b *Bitset) Clear(i int) {
	if w := i / 64; w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) % 64)
	}
}

// Get reports bit i (false beyond current capacity).
func (b *Bitset) Get(i int) bool {
	w := i / 64
	return w < len(b.words) && b.words[w]&(1<<(uint(i)%64)) != 0
}

// SetRange sets bits [start, end): it ORs a head mask into the first word,
// fills the words between and ORs a tail mask into the last.
func (b *Bitset) SetRange(start, end int) {
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
func (b *Bitset) ClearRange(start, end int) {
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

// word returns word w, treating words beyond the current capacity as zero.
func (b *Bitset) word(w int) uint64 {
	if w < len(b.words) {
		return b.words[w]
	}
	return 0
}

// next returns the first bit in [i, end) that is set (set true) or clear,
// or end when there is none, a word at a time.
func (b *Bitset) next(i, end int, set bool) int {
	flip := ^uint64(0)
	if set {
		flip = 0
	}
	for ; i < end; i = (i/64 + 1) * 64 {
		if m := (b.word(i/64) ^ flip) >> (uint(i) % 64); m != 0 {
			return min(i+bits.TrailingZeros64(m), end)
		}
	}
	return end
}
