package pagemem

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// naiveSpace is the obviously-correct model of Space: plain slices, no
// runs, no bitsets, no incremental counters — every query is an O(pages)
// rescan. The differential drivers below replay one operation script
// through both and fail on any observable divergence, so the run splices
// and the word-at-a-time access-bit scans are checked against per-page
// semantics.
type naiveSpace struct {
	pageSize int
	state    []State
	seg      []Segment
	accessed []bool
}

func (n *naiveSpace) alloc(seg Segment, count int) {
	for i := 0; i < count; i++ {
		n.state = append(n.state, Inactive)
		n.seg = append(n.seg, seg)
		n.accessed = append(n.accessed, true)
	}
}

func (n *naiveSpace) touchRange(r Range) {
	for id := r.Start; id < r.End; id++ {
		n.accessed[id] = true
	}
}

// transitionMasked moves the masked pages of word w that are in state from
// to state to, and clears the access bits of the clear-masked pages.
func (n *naiveSpace) transitionMasked(w int, mask uint64, from, to State, clear uint64) {
	for b := 0; b < 64; b++ {
		id := w*64 + b
		if id >= len(n.state) {
			break
		}
		if mask&(1<<uint(b)) != 0 && n.state[id] == from {
			n.state[id] = to
		}
		if clear&(1<<uint(b)) != 0 {
			n.accessed[id] = false
		}
	}
}

func (n *naiveSpace) scanAndClear(r Range) []PageID {
	var hit []PageID
	for id := r.Start; id < r.End; id++ {
		if n.accessed[id] {
			hit = append(hit, id)
			n.accessed[id] = false
		}
	}
	return hit
}

func (n *naiveSpace) countInRange(r Range, st State) int {
	c := 0
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == st {
			c++
		}
	}
	return c
}

func (n *naiveSpace) count(seg Segment, st State) int {
	c := 0
	for id := range n.state {
		if n.seg[id] == seg && n.state[id] == st {
			c++
		}
	}
	return c
}

// selected reports whether page id is in st, where Local selects Inactive
// or Hot and Idle an unaccessed Inactive or Hot page.
func (n *naiveSpace) selected(id PageID, st State) bool {
	cur := n.state[id]
	switch st {
	case Local:
		return cur == Inactive || cur == Hot
	case Idle:
		return (cur == Inactive || cur == Hot) && !n.accessed[id]
	}
	return cur == st
}

// collectInState is the per-page victim scan Prefix replaces: up to max
// pages of r (max <= 0: no limit) in state st, in page order.
func (n *naiveSpace) collectInState(r Range, st State, max int) []PageID {
	var out []PageID
	for id := r.Start; id < r.End; id++ {
		if n.selected(id, st) {
			out = append(out, id)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

// collectIdleLocal is TMO's per-page walk: local pages of r in page order,
// an accessed one loses its bit and is skipped, an idle one is a victim, and
// the walk ends at the max-th victim.
func (n *naiveSpace) collectIdleLocal(r Range, max int) []PageID {
	var out []PageID
	for id := r.Start; id < r.End; id++ {
		if n.state[id] != Inactive && n.state[id] != Hot {
			continue
		}
		if n.accessed[id] {
			n.accessed[id] = false
			continue
		}
		out = append(out, id)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// moveRange is MoveRange page by page: every page of r in from goes to to.
func (n *naiveSpace) moveRange(r Range, from, to State) int {
	moved := 0
	for id := r.Start; id < r.End; id++ {
		if n.selected(id, from) && n.state[id] != to {
			n.state[id] = to
			moved++
		}
	}
	return moved
}

// clearAccessedRange is ClearAccessedRange page by page.
func (n *naiveSpace) clearAccessedRange(r Range, st State) {
	for id := r.Start; id < r.End; id++ {
		if n.selected(id, st) {
			n.accessed[id] = false
		}
	}
}

// spacePair drives one script through the run-backed Space and the model.
type spacePair struct {
	fast *Space
	slow *naiveSpace
}

func newSpacePair() *spacePair {
	return &spacePair{
		fast: NewSpace(DefaultPageSize),
		slow: &naiveSpace{pageSize: DefaultPageSize},
	}
}

// rangeFrom derives an in-bounds half-open range from two script bytes.
func (p *spacePair) rangeFrom(a, b byte) Range {
	n := PageID(len(p.slow.state))
	if n == 0 {
		return Range{}
	}
	lo := PageID(a) * n / 256
	hi := PageID(b) * (n + 1) / 256
	if hi < lo {
		lo, hi = hi, lo
	}
	return Range{Start: lo, End: hi}
}

// step applies one scripted operation to both spaces. Operands come from an
// arbitrary byte stream so the fuzzer can drive it too.
func (p *spacePair) step(t *testing.T, op, a, b byte) {
	t.Helper()
	n := len(p.slow.state)
	switch op % 9 {
	case 0: // grow: a few pages, or (odd multiples of 9) 64 to 1024 pages
		// With a >= 128 the space first reserves 16*b pages, below, at or
		// beyond what the grow needs; the reserve must change nothing the
		// model can see.
		if a >= 128 {
			p.fast.Reserve(16 * int(b))
		}
		seg := Segment(int(a) % int(NumSegments))
		count := int(b) % 97
		if op/9%2 == 1 {
			count = 64 * (1 + int(b)%16)
		}
		p.fast.Alloc(seg, count)
		p.slow.alloc(seg, count)
	case 1, 2: // bulk access path (request spans)
		r := p.rangeFrom(a, b)
		p.fast.TouchRange(r)
		p.slow.touchRange(r)
	case 3: // single-page transition
		if n == 0 {
			return
		}
		id := PageID((int(a)<<8 | int(b)) % n)
		st := State(int(a) % numStates)
		p.fast.SetState(id, st)
		p.slow.state[id] = st
	case 4: // access path
		if n == 0 {
			return
		}
		id := PageID((int(a)<<8 | int(b)) % n)
		got := p.fast.Touch(id)
		p.slow.accessed[id] = true
		if want := p.slow.state[id]; got != want {
			t.Fatalf("Touch(%d) = %v, want %v", id, got, want)
		}
	case 5: // masked window of range moves + access-bit clears (rollback,
		// offload): the set bits of a 64-bit pattern over the 64 pages from
		// w*64 name the pages, each maximal run of them one range call
		if n == 0 {
			return
		}
		w := (int(b)<<8 | int(a)) % ((n + 63) / 64)
		from := State(int(a) % numStates)
		to := State(int(b) % numStates)
		if from == to {
			return
		}
		// Full words half the time; otherwise a byte-derived sparse pattern.
		pattern := ^uint64(0)
		if b&1 != 0 {
			pattern = uint64(a)*0x0101010101010101 ^ uint64(b)<<19 ^ uint64(b)<<41
		}
		clear := pattern &^ (uint64(b) << 32)
		if rem := n - w*64; rem < 64 {
			clear &= 1<<uint(rem) - 1
		}
		forMaskRuns(w*64, pattern, func(r Range) { p.fast.MoveRange(r, from, to) })
		forMaskRuns(w*64, clear, func(r Range) {
			for st := Inactive; st < numStates; st++ {
				p.fast.ClearAccessedRange(r, st)
			}
		})
		p.slow.transitionMasked(w, pattern, from, to, clear)
		r := Range{Start: PageID(w * 64), End: PageID(min(n, w*64+64))}
		for st := Inactive; st < numStates; st++ {
			if got, want := p.fast.CountInRange(r, st), p.slow.countInRange(r, st); got != want {
				t.Fatalf("masked move (%d, %#x, %v->%v): CountInRange(%v) = %d, want %d",
					w, pattern, from, to, st, got, want)
			}
		}
	case 6: // accessed-bit scan (DAMON/TMO sampling)
		r := p.rangeFrom(a, b)
		var got []PageID
		p.fast.ScanAndClear(r, func(id PageID) { got = append(got, id) })
		if want := p.slow.scanAndClear(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanAndClear(%v) = %v, want %v", r, got, want)
		}
	case 7: // budgeted prefix (offload count): one state, Local or Idle;
		// an Idle prefix then has its local access bits cleared (TMO)
		r := p.rangeFrom(a, b)
		st := State(int(a) % int(Idle+1))
		max := 0
		if b%4 != 0 {
			max = int(b) / 4
		}
		want := p.slow.collectInState(r, st, max)
		wantR := r
		if max > 0 && len(want) == max {
			wantR.End = want[max-1] + 1
		}
		got, k := p.fast.Prefix(r, st, max)
		if got != wantR || k != len(want) {
			t.Fatalf("Prefix(%v, %v, %d) = %v (%d pages), want %v (%d)", r, st, max, got, k, wantR, len(want))
		}
		// With nothing moving, Runs walks exactly the runs overlapping r
		// that hold a page of each page state st selects, whole (Local and
		// Idle walk Inactive and Hot).
		walked := []State{st}
		if st >= Local {
			walked = []State{Inactive, Hot}
		}
		for _, ws := range walked {
			p.checkRunWalk(t, r, ws)
		}
		if st == Idle {
			// TMO's step: clearing the local access bits of the idle prefix
			// leaves exactly the bits the per-page idle walk leaves.
			p.fast.ClearAccessedRange(got, Local)
			if victims := p.slow.collectIdleLocal(r, max); !reflect.DeepEqual(victims, want) {
				t.Fatalf("idle walk of %v, %d found %v, Prefix counted %v", r, max, victims, want)
			}
			for id := r.Start; id < r.End; id++ {
				if g, w := p.fast.Accessed(id), p.slow.accessed[id]; g != w {
					t.Fatalf("Prefix(%v, idle, %d) then clear: page %d accessed %v, want %v", r, max, id, g, w)
				}
			}
		}
	case 8: // range move (offload, recall) or access-bit clear (TMO)
		r := p.rangeFrom(a, b)
		from := State(int(a) % int(Idle+1))
		if b%4 == 0 {
			p.fast.ClearAccessedRange(r, from)
			p.slow.clearAccessedRange(r, from)
			return
		}
		to := State(int(b) % numStates)
		if got, want := p.fast.MoveRange(r, from, to), p.slow.moveRange(r, from, to); got != want {
			t.Fatalf("MoveRange(%v, %v, %v) moved %d pages, want %d", r, from, to, got, want)
		}
	}
}

// check compares the complete observable aggregate state.
func (p *spacePair) check(t *testing.T, step int) {
	t.Helper()
	if got, want := p.fast.NumPages(), len(p.slow.state); got != want {
		t.Fatalf("step %d: NumPages = %d, want %d", step, got, want)
	}
	for st := Inactive; st < numStates; st++ {
		all := Range{Start: 0, End: PageID(len(p.slow.state))}
		if got, want := p.fast.CountInRange(all, st), p.slow.countInRange(all, st); got != want {
			t.Fatalf("step %d: CountInRange(all, %v) = %d, want %d", step, st, got, want)
		}
		if got, want := p.fast.CountState(st), p.slow.countInRange(all, st); got != want {
			t.Fatalf("step %d: CountState(%v) = %d, want %d", step, st, got, want)
		}
		for seg := Segment(0); seg < NumSegments; seg++ {
			if got, want := p.fast.Count(seg, st), p.slow.count(seg, st); got != want {
				t.Fatalf("step %d: Count(%v, %v) = %d, want %d", step, seg, st, got, want)
			}
		}
	}
	for id := range p.slow.state {
		if got, want := p.fast.State(PageID(id)), p.slow.state[id]; got != want {
			t.Fatalf("step %d: State(%d) = %v, want %v", step, id, got, want)
		}
		if got, want := p.fast.SegmentOf(PageID(id)), p.slow.seg[id]; got != want {
			t.Fatalf("step %d: SegmentOf(%d) = %v, want %v", step, id, got, want)
		}
		if got, want := p.fast.Accessed(PageID(id)), p.slow.accessed[id]; got != want {
			t.Fatalf("step %d: Accessed(%d) = %v, want %v", step, id, got, want)
		}
	}
	all := Range{Start: 0, End: PageID(len(p.slow.state))}
	if got, want := p.fast.CountAccessed(all), len(p.slow.scanAndClearPreview()); got != want {
		t.Fatalf("step %d: CountAccessed = %d, want %d", step, got, want)
	}
	p.checkRuns(t, step)
}

// checkRuns fails unless the run list is canonical: starts ascend strictly
// from 0 below the page count (so every run is non-empty and their lengths
// sum to it), no two adjacent runs share a state, and each state's total is
// the sum of its runs.
func (p *spacePair) checkRuns(t *testing.T, step int) {
	t.Helper()
	runs, n := p.fast.runs, len(p.slow.state)
	if (len(runs) == 0) != (n == 0) || len(runs) > 0 && runs[0].start != 0 {
		t.Fatalf("step %d: runs %v for %d pages, want a first run at page 0", step, runs, n)
	}
	var sum [numStates]int
	pages := 0
	for i, run := range runs {
		end := p.fast.runEnd(i)
		if end <= run.start || int(end) > n {
			t.Fatalf("step %d: run %d [%d, %d) empty or past %d pages", step, i, run.start, end, n)
		}
		if i > 0 && runs[i-1].st == run.st {
			t.Fatalf("step %d: runs %d and %d share state %v", step, i-1, i, run.st)
		}
		sum[run.st] += int(end - run.start)
		pages += int(end - run.start)
	}
	if pages != n {
		t.Fatalf("step %d: run lengths sum to %d, want %d pages", step, pages, n)
	}
	if sum != p.fast.total {
		t.Fatalf("step %d: run sums per state %v, totals %v", step, sum, p.fast.total)
	}
}

// checkRunWalk walks r's runs of state st with Runs and fails unless each
// is maximal and wholly in st, and together they cover exactly r's pages in
// st.
func (p *spacePair) checkRunWalk(t *testing.T, r Range, st State) {
	t.Helper()
	state := p.slow.state
	var got []PageID
	for it := p.fast.Runs(r, st); it.Next(); {
		run := it.Run
		if run.Start < 0 || int(run.End) > len(state) || run.End <= run.Start || len(got) > 0 && run.Start <= got[len(got)-1] {
			t.Fatalf("Runs(%v, %v) yields %v: not an allocated run past the last one", r, st, run)
		}
		for id := run.Start; id < run.End; id++ {
			if state[id] != st {
				t.Fatalf("Runs(%v, %v) yields %v holding page %d in %v", r, st, run, id, state[id])
			}
		}
		if run.Start > 0 && state[run.Start-1] == st || int(run.End) < len(state) && state[run.End] == st {
			t.Fatalf("Runs(%v, %v) yields %v, which is not maximal", r, st, run)
		}
		for id := max(run.Start, r.Start); id < min(run.End, r.End); id++ {
			got = append(got, id)
		}
	}
	if want := p.slow.collectInState(r, st, 0); !slices.Equal(got, want) {
		t.Fatalf("Runs(%v, %v) covers %v, want %v", r, st, got, want)
	}
}

// forMaskRuns calls fn for each maximal run of set bits of m, as the pages
// it covers in the 64-page window from page base.
func forMaskRuns(base int, m uint64, fn func(Range)) {
	for m != 0 {
		lo := bits.TrailingZeros64(m)
		k := bits.TrailingZeros64(^(m >> uint(lo)))
		fn(Range{Start: PageID(base + lo), End: PageID(base + lo + k)})
		m &^= (uint64(1)<<uint(k) - 1) << uint(lo)
	}
}

// scanAndClearPreview returns the accessed set without clearing (model-side
// helper for CountAccessed).
func (n *naiveSpace) scanAndClearPreview() []PageID {
	var hit []PageID
	for id, acc := range n.accessed {
		if acc {
			hit = append(hit, PageID(id))
		}
	}
	return hit
}

// TestSpaceDifferentialRandomOps replays long random scripts through the
// run-backed Space and the naive model, comparing complete observable
// state periodically. The scripts' large grows take every seed past 4,096
// pages, 64 access-bit words.
func TestSpaceDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newSpacePair()
		for step := 0; step < 500; step++ {
			p.step(t, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if step%11 == 0 || step == 499 {
				p.check(t, step)
			}
		}
		p.check(t, 500)
		if n := p.fast.NumPages(); n <= 64*64 {
			t.Fatalf("seed %d: script reached only %d pages", seed, n)
		}
	}
}

// FuzzSpaceDifferential lets the fuzzer drive arbitrary operation scripts
// through Space and the naive model; any divergence in scan results,
// counters, or per-page state fails.
func FuzzSpaceDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 70, 4, 0, 5, 3, 1, 9, 5, 0, 255, 6, 0, 255, 7, 2, 3})
	f.Add([]byte{0, 2, 96, 1, 20, 200, 2, 10, 128, 0, 1, 33, 5, 64, 250})
	f.Add([]byte{0, 129, 40, 9, 128, 3, 5, 2, 255, 0, 200, 250, 7, 3, 255, 9, 130, 15, 1, 60, 200, 0, 128, 0})
	// One run per page: 64 pages alternating Inactive, Hot, Remote page by
	// page, then a budgeted Prefix, a range move, an Idle move and a masked
	// window over them.
	alternating := []byte{9, 0, 0}
	for id := byte(0); id < 64; id++ {
		if st := id % 3; st != 0 {
			alternating = append(alternating, 3, st, id)
		}
	}
	f.Add(append(alternating, 7, 1, 21, 8, 2, 255, 8, 4, 253, 5, 1, 3))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*300 {
			script = script[:3*300]
		}
		p := newSpacePair()
		for i := 0; i+2 < len(script); i += 3 {
			p.step(t, script[i], script[i+1], script[i+2])
		}
		p.check(t, len(script))
	})
}
