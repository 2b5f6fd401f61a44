package policy

// White-box tests for TMO's access bits and its one-pass idle walk.

import (
	"math"
	"slices"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// selectedPages lists the pages of Local selections in order, failing
// unless each selection is non-empty, local throughout, and past the one
// before it.
func selectedPages(t *testing.T, s *pagemem.Space, sels []pagemem.Selection) []pagemem.PageID {
	t.Helper()
	var ids []pagemem.PageID
	for _, sel := range sels {
		if sel.St != pagemem.Local || sel.R.Len() <= 0 || len(ids) > 0 && sel.R.Start <= ids[len(ids)-1] {
			t.Fatalf("selection %v after page list %v: want a non-empty Local range past it", sel, ids)
		}
		if n := s.CountInRange(sel.R, pagemem.Local); n != sel.R.Len() {
			t.Fatalf("selection %v holds %d non-local pages", sel, sel.R.Len()-n)
		}
		for id := sel.R.Start; id < sel.R.End; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestIdlePrefixStopsMidWord pins the budget edge of TMO's walk: when the
// budget's last idle page falls inside a word, the walk ends right after
// it, so the accessed pages before it lose their bits and those after it
// keep them.
func TestIdlePrefixStopsMidWord(t *testing.T) {
	v := newFakeView(128, 0)
	s, r := v.space, v.runtimeRange
	c := &tmoContainer{view: v}
	for _, id := range []int{3, 10, 40, 70} {
		c.accessed.SetRange(id, id+1)
	}
	setState(s, 5, pagemem.Remote) // not local: neither idle nor cleared
	c.accessed.SetRange(5, 6)
	sels, left := c.idleStretches(s, r, nil, 8)
	// Idle local pages in order: 0 1 2 4 6 7 8 9 — the 8th is page 9.
	want := []pagemem.Selection{
		{R: pagemem.Range{Start: 0, End: 3}, St: pagemem.Local},
		{R: pagemem.Range{Start: 4, End: 5}, St: pagemem.Local},
		{R: pagemem.Range{Start: 6, End: 10}, St: pagemem.Local},
	}
	if left != 0 || !slices.Equal(sels, want) {
		t.Fatalf("walk with budget 8 = %v (%d left), want %v (0)", sels, left, want)
	}
	for id, acc := range map[int]bool{3: false, 5: true, 10: true, 40: true, 70: true} {
		if c.accessed.Get(id) != acc {
			t.Errorf("page %d accessed = %v, want %v", id, !acc, acc)
		}
	}
	// Without a budget the walk covers all of r; pages 10, 40 and 70 are
	// still accessed, page 3 is idle again, and only the remote page keeps
	// its bit afterwards.
	sels, left = c.idleStretches(s, r, nil, math.MaxInt)
	if n := len(selectedPages(t, s, sels)); n != 128-1-3 || left != math.MaxInt-n {
		t.Fatalf("unbounded walk found %d idle pages, want %d", n, 128-1-3)
	}
	if n := c.accessed.CountRange(0, 128); n != 1 || !c.accessed.Get(5) {
		t.Fatalf("walk left %d accessed pages, want only remote page 5", n)
	}
	// Moving the idle pages takes every local page now, and leaves the
	// remote one.
	moved := 0
	sels, _ = c.idleStretches(s, r, nil, math.MaxInt)
	for _, sel := range sels {
		moved += s.MoveRange(sel.R, sel.St, pagemem.Remote)
	}
	if moved != 127 || s.CountState(pagemem.Remote) != 128 {
		t.Fatalf("moving the idle stretches moved %d, remote %d; want 127, 128", moved, s.CountState(pagemem.Remote))
	}
}

// baseline is an attached baseline container and its access bits.
type baseline struct {
	name string
	c    ContainerPolicy
	bits *bitset
}

// attachBaselines attaches TMO and DAMON each to a fresh view of runtime
// and init pages.
func attachBaselines(e *simtime.Engine, runtime, init int) []baseline {
	tmo := NewTMO(TMOConfig{}).Attach(e, newFakeView(runtime, init)).(*tmoContainer)
	damon := NewDAMON(DAMONConfig{}).Attach(e, newFakeView(runtime, init)).(*damonContainer)
	return []baseline{{"tmo", tmo, &tmo.accessed}, {"damon", damon, &damon.accessed}}
}

// TestTouchSetsAccessBit checks the access-bit life of a page under both
// baselines: allocation (the segment hooks) sets it, a clear drops it, and
// Touched sets it again without setting its neighbours'.
func TestTouchSetsAccessBit(t *testing.T) {
	e := simtime.NewEngine()
	for _, b := range attachBaselines(e, 3, 2) {
		b.c.RuntimeLoaded(e)
		b.c.InitDone(e)
		if n := b.bits.CountRange(0, 64); n != 5 {
			t.Fatalf("%s: %d pages born accessed, want 5", b.name, n)
		}
		b.bits.ClearRange(0, 5)
		b.c.Touched(pagemem.Range{Start: 3, End: 4})
		if n := b.bits.CountRange(0, 64); n != 1 || !b.bits.Get(3) {
			t.Fatalf("%s: touching page 3 left %d pages accessed, want only page 3", b.name, n)
		}
	}
}

// TestTouchRangeMatchesPerPage checks Touched over a range, with unaligned
// edges, against Touched on every page of it, under both baselines.
func TestTouchRangeMatchesPerPage(t *testing.T) {
	e := simtime.NewEngine()
	bulk, single := attachBaselines(e, 120, 80), attachBaselines(e, 120, 80)
	r := pagemem.Range{Start: 3, End: 197}
	for i := range bulk {
		bulk[i].c.Touched(r)
		for id := r.Start; id < r.End; id++ {
			single[i].c.Touched(pagemem.Range{Start: id, End: id + 1})
		}
		sameAccessBits(t, bulk[i].name, bulk[i].bits, single[i].bits, 200)
		if n := bulk[i].bits.CountRange(0, 200); n != r.Len() {
			t.Fatalf("%s: Touched(%v) set %d bits, want %d", bulk[i].name, r, n, r.Len())
		}
	}
}

// idleModel is the per-page model of TMO's walk: each page's state and
// access bit as plain slices.
type idleModel struct {
	state    []pagemem.State
	accessed []bool
}

// collectIdleLocal is TMO's per-page walk: local pages of r in page order,
// an accessed one loses its bit and is skipped, an idle one is a victim, and
// the walk ends at the max-th victim.
func (m *idleModel) collectIdleLocal(r pagemem.Range, max int) []pagemem.PageID {
	var out []pagemem.PageID
	for id := r.Start; id < r.End; id++ {
		if m.state[id] == pagemem.Remote {
			continue
		}
		if m.accessed[id] {
			m.accessed[id] = false
			continue
		}
		out = append(out, id)
		if len(out) == max {
			break
		}
	}
	return out
}

// rangeFrom derives an in-bounds half-open range of n pages from two
// script bytes.
func rangeFrom(n int, a, b byte) pagemem.Range {
	lo, hi := pagemem.PageID(int(a)*n/256), pagemem.PageID(int(b)*(n+1)/256)
	return pagemem.Range{Start: min(lo, hi), End: max(lo, hi)}
}

// FuzzTMOIdleWalk holds TMO's one-pass idle walk to the per-page walk on
// fuzzer-driven scripts, read in (op, a, b) triples. Its ops (op % 5): 0
// grows the space by a few pages, or (odd multiples of 5) by 64 to 1024,
// born accessed; 1 touches a range; 2 moves a range's pages of one state
// or Local to a state; 3 clears one page's bit, as DAMON's sampling does;
// 4 walks a range with a budget (or none), which must select exactly the
// model's victims, in order, as disjoint Local stretches, and leave the
// model's bits.
func FuzzTMOIdleWalk(f *testing.F) {
	f.Add([]byte{5, 0, 3, 1, 20, 60, 2, 2, 90, 3, 0, 7, 4, 0, 255, 4, 0, 129})
	// Four 1024-page grows, a touch over most of them, a remote hole, then
	// budgeted walks that end inside a word and across words.
	f.Add([]byte{5, 0, 15, 5, 0, 15, 5, 0, 15, 5, 0, 15, 1, 3, 240, 2, 130, 150,
		3, 1, 77, 4, 0, 253, 4, 20, 21, 4, 0, 255, 4, 0, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*300 {
			script = script[:3*300]
		}
		v := newFakeView(0, 0)
		s, c, m := v.space, &tmoContainer{view: v}, &idleModel{}
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			n := len(m.state)
			switch op % 5 {
			case 0:
				count := int(b) % 97
				if op/5%2 == 1 {
					count = 64 * (1 + int(b)%16)
				}
				r := s.Alloc(count) // a is ignored
				c.accessed.setPages(r)
				for range count {
					m.state = append(m.state, pagemem.Inactive)
					m.accessed = append(m.accessed, true)
				}
			case 1:
				r := rangeFrom(n, a, b)
				c.Touched(r)
				for id := r.Start; id < r.End; id++ {
					m.accessed[id] = true
				}
			case 2:
				r := rangeFrom(n, a, b)
				from, to := pagemem.State(int(a)%int(pagemem.Local+1)), pagemem.State(int(b)%3)
				s.MoveRange(r, from, to)
				for id := r.Start; id < r.End; id++ {
					if st := m.state[id]; st == from || from == pagemem.Local && st != pagemem.Remote {
						m.state[id] = to
					}
				}
			case 3:
				if n > 0 {
					id := (int(a)<<8 | int(b)) % n
					c.accessed.Clear(id)
					m.accessed[id] = false
				}
			case 4:
				r := rangeFrom(n, a, b)
				budget := math.MaxInt
				if b%4 != 0 {
					budget = 1 + int(b)/4
				}
				sels, left := c.idleStretches(s, r, nil, budget)
				got := selectedPages(t, s, sels)
				if want := m.collectIdleLocal(r, budget); !slices.Equal(got, want) || left != budget-len(want) {
					t.Fatalf("walk of %v with budget %d selected %v (%d left), want %v", r, budget, got, left, want)
				}
				for id, acc := range m.accessed {
					if c.accessed.Get(id) != acc {
						t.Fatalf("walk of %v with budget %d: page %d accessed %v, want %v", r, budget, id, !acc, acc)
					}
				}
			}
		}
		for id, st := range m.state {
			if got := stateOf(s, pagemem.PageID(id)); got != st {
				t.Fatalf("page %d state %v, want %v", id, got, st)
			}
		}
	})
}

// rangeView is a fakeView that offloads with range calls, as the platform
// does, and records no page list.
type rangeView struct{ *fakeView }

// OffloadPages moves the first max selected local pages to Remote, one
// Prefix and one MoveRange per selection.
func (v rangeView) OffloadPages(_ *simtime.Engine, sels []pagemem.Selection, max int) int {
	n := 0
	for _, sel := range sels {
		r, _ := v.space.Prefix(sel.R, sel.St, max-n)
		if n += v.space.MoveRange(r, sel.St, pagemem.Remote); n == max {
			break
		}
	}
	return n
}

// BenchmarkTMOStep times one TMO step on a Bert-sized container whose
// runtime hot span is re-touched before every step: the step clears the
// span's bits, passes the runs it already offloaded and offloads its budget
// of idle runtime pages. Every 32 steps the container is restored untimed
// (every page back to Inactive, as built, in place), before the runtime
// segment runs out of idle pages.
func BenchmarkTMOStep(b *testing.B) {
	prof := workload.Bert()
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	v := rangeView{newFakeView(s.PagesOf(prof.RuntimeBytes), s.PagesOf(prof.InitBytes))}
	c := &tmoContainer{cfg: TMOConfig{}.withDefaults(), view: v}
	hot := pagemem.Range{Start: v.runtimeRange.Start, End: v.runtimeRange.Start + pagemem.PageID(s.PagesOf(prof.RuntimeHotBytes))}
	n := numPages(v.space)
	all := pagemem.Range{End: pagemem.PageID(n)}
	e := simtime.NewEngine()
	restore := func() {
		v.space.MoveRange(all, pagemem.Hot, pagemem.Inactive)
		v.space.MoveRange(all, pagemem.Remote, pagemem.Inactive)
		c.accessed.SetRange(0, n)
		c.accessed.ClearRange(0, n)
		c.carry = 0
	}
	restore()
	c.step(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%32 == 0 {
			b.StopTimer()
			restore()
			b.StartTimer()
		}
		c.Touched(hot)
		c.step(e)
	}
	b.StopTimer()
	if v.space.CountState(pagemem.Remote) == 0 {
		b.Fatal("the steps offloaded nothing")
	}
}
