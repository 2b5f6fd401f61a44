package mglru

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// tracker is the operation surface shared by LRU and Reference, so the
// differential drivers below can replay one script through both.
type tracker interface {
	AssignNew() pagemem.Range
	InsertBarrier() (GenID, pagemem.Range)
	GenOf(pagemem.PageID) GenID
	Promote(pagemem.PageID)
	Demote(pagemem.PageID, GenID)
	GenPages(GenID) int
	NumGenerations() int
	Youngest() GenID
	Promotions() uint64
	Demotions() uint64
	WalkGen(GenID, func(pagemem.PageID))
}

var (
	_ tracker = (*LRU)(nil)
	_ tracker = (*Reference)(nil)
)

// diffPair drives the same space shape through both implementations. The two
// trackers get separate (but identically grown) spaces so neither can cheat
// by observing the other's side effects.
type diffPair struct {
	fast    *LRU
	slow    *Reference
	fastSpc *pagemem.Space
	slowSpc *pagemem.Space
}

func newDiffPair() *diffPair {
	fs := pagemem.NewSpace(pagemem.DefaultPageSize)
	ss := pagemem.NewSpace(pagemem.DefaultPageSize)
	return &diffPair{fast: New(fs), slow: NewReference(ss), fastSpc: fs, slowSpc: ss}
}

func (p *diffPair) alloc(seg pagemem.Segment, n int) {
	p.fastSpc.Alloc(seg, n)
	p.slowSpc.Alloc(seg, n)
}

func (p *diffPair) check(t *testing.T, step int) {
	t.Helper()
	if got, want := p.fast.NumGenerations(), p.slow.NumGenerations(); got != want {
		t.Fatalf("step %d: generations = %d, want %d", step, got, want)
	}
	if got, want := p.fast.Promotions(), p.slow.Promotions(); got != want {
		t.Fatalf("step %d: promotions = %d, want %d", step, got, want)
	}
	if got, want := p.fast.Demotions(), p.slow.Demotions(); got != want {
		t.Fatalf("step %d: demotions = %d, want %d", step, got, want)
	}
	for g := GenID(-1); int(g) < p.slow.NumGenerations(); g++ {
		if got, want := p.fast.GenPages(g), p.slow.GenPages(g); got != want {
			t.Fatalf("step %d: gen %d pages = %d, want %d", step, g, got, want)
		}
	}
	n := p.slowSpc.NumPages() + 3 // probe a little past the end too
	for id := pagemem.PageID(0); int(id) < n; id++ {
		if got, want := p.fast.GenOf(id), p.slow.GenOf(id); got != want {
			t.Fatalf("step %d: GenOf(%d) = %d, want %d", step, id, got, want)
		}
	}
	for g := GenID(-1); int(g) < p.slow.NumGenerations(); g++ {
		var fastWalk, slowWalk []pagemem.PageID
		p.fast.WalkGen(g, func(id pagemem.PageID) { fastWalk = append(fastWalk, id) })
		p.slow.WalkGen(g, func(id pagemem.PageID) { slowWalk = append(slowWalk, id) })
		if len(fastWalk) != len(slowWalk) {
			t.Fatalf("step %d: WalkGen(%d) lengths %d vs %d", step, g, len(fastWalk), len(slowWalk))
		}
		for i := range fastWalk {
			if fastWalk[i] != slowWalk[i] {
				t.Fatalf("step %d: WalkGen(%d)[%d] = %d, want %d", step, g, i, fastWalk[i], slowWalk[i])
			}
		}
	}
}

// step applies one scripted operation to both trackers. op and the operands
// come from an arbitrary byte stream so the fuzzer can drive it too.
func (p *diffPair) step(op, a, b byte) {
	switch op % 8 {
	case 0: // allocate a fresh chunk and stamp it
		p.alloc(pagemem.Segment(int(a)%int(pagemem.NumSegments)), int(b)%97)
		p.fast.AssignNew()
		p.slow.AssignNew()
	case 1: // allocate a fresh chunk, untracked until the next stamp
		p.alloc(pagemem.SegExec, int(b)%97)
	case 2: // time barrier (also stamps any untracked tail)
		p.fast.InsertBarrier()
		p.slow.InsertBarrier()
	case 3, 4: // access path: promote an arbitrary page (possibly untracked)
		id := pagemem.PageID((int(a)<<8 | int(b)) % (p.slowSpc.NumPages() + 5))
		p.fast.Promote(id)
		p.slow.Promote(id)
	case 5: // rollback path: demote to an arbitrary existing generation
		id := pagemem.PageID((int(a)<<8 | int(b)) % (p.slowSpc.NumPages() + 5))
		g := GenID(int(a) % p.slow.NumGenerations())
		p.fast.Demote(id, g)
		p.slow.Demote(id, g)
	case 6: // bulk access path: masked word promote vs per-bit ascending
		words := p.slowSpc.NumPages()/64 + 1
		base := pagemem.PageID(int(a) % words * 64)
		mask := uint64(a) | uint64(b)<<8 | uint64(a)<<24 | uint64(b)<<48
		p.fast.PromoteMasked(base, mask)
		for rem := mask; rem != 0; rem &= rem - 1 {
			p.slow.Promote(base + pagemem.PageID(bits.TrailingZeros64(rem)))
		}
	case 7: // bulk rollback path: masked word demote vs per-bit ascending
		words := p.slowSpc.NumPages()/64 + 1
		base := pagemem.PageID(int(b) % words * 64)
		mask := ^uint64(0)
		if a&1 != 0 {
			mask = uint64(b) | uint64(a)<<13 | uint64(b)<<29 | uint64(a)<<45
		}
		g := GenID(int(a>>1) % p.slow.NumGenerations())
		p.fast.DemoteMasked(base, mask, g)
		for rem := mask; rem != 0; rem &= rem - 1 {
			p.slow.Demote(base+pagemem.PageID(bits.TrailingZeros64(rem)), g)
		}
	}
}

// TestDifferentialRandomOps replays long random operation scripts through the
// range-run LRU and the per-page reference, comparing the complete observable
// state after every step.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newDiffPair()
		for step := 0; step < 600; step++ {
			p.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if step%13 == 0 || step == 599 {
				p.check(t, step)
			}
		}
		p.check(t, 600)
	}
}

// TestDifferentialPromoteHeavy hammers the exception-set paths: many
// promotions into the youngest generation, interleaved with demotions back,
// across several barriers — the exact traffic containers generate.
func TestDifferentialPromoteHeavy(t *testing.T) {
	p := newDiffPair()
	p.alloc(pagemem.SegRuntime, 512)
	p.fast.InsertBarrier()
	p.slow.InsertBarrier()
	p.alloc(pagemem.SegInit, 256)
	p.fast.InsertBarrier()
	p.slow.InsertBarrier()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		id := pagemem.PageID(rng.Intn(768))
		if rng.Intn(3) == 0 {
			g := GenID(rng.Intn(p.slow.NumGenerations()))
			p.fast.Demote(id, g)
			p.slow.Demote(id, g)
		} else {
			p.fast.Promote(id)
			p.slow.Promote(id)
		}
		if i%500 == 0 {
			p.fast.InsertBarrier()
			p.slow.InsertBarrier()
		}
	}
	p.check(t, 4000)
}

// TestDifferentialDemoteMasked builds words holding every case DemoteMasked
// distinguishes — plain pages of several base runs, pages already at the
// target generation, exceptions in every generation, and untracked pages
// past the last run — then demotes whole and partial words to each
// generation and compares against per-page Demote.
func TestDifferentialDemoteMasked(t *testing.T) {
	for g := GenID(0); g < 4; g++ {
		for _, mask := range []uint64{^uint64(0), 0xaaaa_5555_f0f0_0f0f, 1 << 63, 0} {
			p := newDiffPair()
			p.alloc(pagemem.SegRuntime, 40) // gen 0: pages 0..39
			p.fast.InsertBarrier()
			p.slow.InsertBarrier()
			p.alloc(pagemem.SegInit, 60) // gen 1: pages 40..99
			p.fast.InsertBarrier()
			p.slow.InsertBarrier()
			p.fast.InsertBarrier() // gen 3 is the youngest
			p.slow.InsertBarrier()
			p.alloc(pagemem.SegExec, 30) // untracked: pages 100..129
			for id := pagemem.PageID(0); id < 130; id++ {
				switch id % 5 {
				case 0, 1:
					p.fast.Promote(id)
					p.slow.Promote(id)
				case 2:
					p.fast.Demote(id, 2)
					p.slow.Demote(id, 2)
				case 3:
					p.fast.Demote(id, GenID(id%2))
					p.slow.Demote(id, GenID(id%2))
				}
			}
			p.check(t, 0)
			for base := pagemem.PageID(0); base < 192; base += 64 {
				p.fast.DemoteMasked(base, mask, g)
				for rem := mask; rem != 0; rem &= rem - 1 {
					p.slow.Demote(base+pagemem.PageID(bits.TrailingZeros64(rem)), g)
				}
				p.check(t, int(base))
			}
		}
	}
}

// FuzzDifferentialOps lets the fuzzer drive arbitrary operation scripts
// through both implementations; any observable divergence fails.
func FuzzDifferentialOps(f *testing.F) {
	f.Add([]byte{0, 1, 40, 2, 0, 0, 3, 0, 5, 5, 0, 3, 2, 0, 0, 6, 0, 9})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0, 2, 200, 1, 0, 64, 4, 1, 1, 5, 2, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*400 {
			script = script[:3*400]
		}
		p := newDiffPair()
		for i := 0; i+2 < len(script); i += 3 {
			p.step(script[i], script[i+1], script[i+2])
		}
		p.check(t, len(script))
	})
}
