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

// Grow ensures the bitset addresses bits [0, n) without further allocation,
// so hot-path Set calls stay on the in-capacity fast path.
func (b *Bitset) Grow(n int) {
	if n > 0 {
		b.grow(n - 1)
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

// Set sets bit i.
func (b *Bitset) Set(i int) {
	w := i / 64
	if w >= len(b.words) {
		b.grow(i)
	}
	b.words[w] |= 1 << (uint(i) % 64)
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

// word returns word w, treating words beyond the current capacity as zero.
func (b *Bitset) word(w int) uint64 {
	if w < len(b.words) {
		return b.words[w]
	}
	return 0
}

// ForEachSet calls fn for every set bit in [start, end), skipping zero words
// whole. fn receives the bit index.
func (b *Bitset) ForEachSet(start, end int, fn func(int)) {
	if end <= start || len(b.words) == 0 {
		return
	}
	if max := len(b.words) * 64; end > max {
		end = max
	}
	for i := start; i < end; {
		w := i / 64
		lo := uint(i) % 64
		hi := uint(64)
		if end-(w*64) < 64 {
			hi = uint(end - w*64)
		}
		word := b.words[w] & (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			fn(w*64 + tz)
			word &^= 1 << uint(tz)
		}
		i = (w + 1) * 64
	}
}
