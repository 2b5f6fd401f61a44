// Package lazyrand is the simulator's one RNG constructor. New(seed) returns
// a *rand.Rand whose stream is exactly that of rand.New(rand.NewSource(seed)),
// but whose source computes each of its 607 state words the first time the
// generator reads it, instead of all of them at Seed.
//
// math/rand's source is an additive lagged Fibonacci generator. Its Seed
// runs 1,841 chained seedrand steps, x → 48271·x mod (2³¹−1), and builds
// state word i from outputs 21+3i, 22+3i and 23+3i XORed with a fixed
// seeding table. Output n of that chain is x0·48271ⁿ mod (2³¹−1), so with
// the powers tabulated once any word costs three multiply-mods. A container
// that draws a handful of values then pays for a handful of words, and the
// 4,856-byte state array itself is allocated at the first draw, so a
// generator that is never drawn from costs only its two small structs.
package lazyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is the number of seedrand outputs math/rand discards before
	// the first state word.
	seedSkip = 20
	// zeroSeed replaces a seed that reduces to 0, as math/rand does.
	zeroSeed = 89482311
)

// pow[i][j] is 48271^(seedSkip+1+3i+j) mod (2³¹−1): the multipliers of the
// three seedrand outputs state word i is built from. It is a var
// initializer, not init(), because cooked's initializer reads it.
var pow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for range seedSkip {
		x = x * 48271 % int32max
	}
	for i := range p {
		for j := range p[i] {
			x = x * 48271 % int32max
			p[i][j] = uint32(x)
		}
	}
	return p
}()

// cooked is math/rand's seeding table, recovered from the first rngLen
// outputs of rand.NewSource(1) rather than copied.
var cooked = recoverCooked()

// recoverCooked inverts math/rand's first rngLen steps. Step k reads the
// feed word (rngLen−rngTap−1−k) mod rngLen, which no earlier step wrote,
// and the tap word (rngLen−1−k), which step k−rngTap overwrote with its
// output when k ≥ rngTap; so out[k] − out[k−rngTap] is an original word for
// k ≥ rngTap, and the words those steps yield give the rest. XORing out seed
// 1's seedrand part leaves the table.
func recoverCooked() (c [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	const feed0 = rngLen - rngTap
	for k := rngTap; k < rngLen; k++ {
		v[(feed0-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := range rngTap {
		v[feed0-1-k] = out[k] - v[rngLen-1-k]
	}
	for i := range c {
		c[i] = v[i] ^ seedPart(1, i)
	}
	return c
}

// seedPart is state word i's seedrand contribution for reduced seed x0.
func seedPart(x0 uint64, i int) int64 {
	p := &pow[i]
	u := int64(x0*uint64(p[0])%int32max) << 40
	u ^= int64(x0*uint64(p[1])%int32max) << 20
	return u ^ int64(x0*uint64(p[2])%int32max)
}

// source is math/rand's rngSource with lazily computed state. Both indices
// step down one word per draw, feed from rngLen−rngTap−1 and tap from
// rngLen−1, so the words are first read in a fixed order: draw k reads
// fresh feed word rngLen−rngTap−1−k while k < rngLen−rngTap, and fresh tap
// word rngLen−1−k while k < rngTap; every other read finds a word computed
// (and maybe fed back) by an earlier draw. fresh counts the draws that
// still read a fresh word, so no per-word bookkeeping is needed. vec is nil
// until the first draw.
type source struct {
	tap, feed int
	fresh     int
	x0        uint64
	vec       *[rngLen]int64
}

// New returns a generator seeded with seed whose every draw equals
// rand.New(rand.NewSource(seed))'s.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the generator to seed, with math/rand's reduction rules. It
// computes no state word.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.fresh = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// fill computes the fresh words the current draw reads: always the feed
// word, and the tap word during the first rngTap draws. The first draw
// allocates the state; a reseed keeps it, since fill rewrites every word
// before it is read again.
func (s *source) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	s.fresh--
	s.vec[s.feed] = seedPart(s.x0, s.feed) ^ cooked[s.feed]
	if s.fresh >= rngLen-2*rngTap {
		s.vec[s.tap] = seedPart(s.x0, s.tap) ^ cooked[s.tap]
	}
}

// Uint64 is the lagged Fibonacci step of math/rand's rngSource.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as rngSource.Int63 does.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
