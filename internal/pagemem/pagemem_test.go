package pagemem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpaceRejectsBadPageSize(t *testing.T) {
	for _, sz := range []int{0, -1, -4096} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", sz)
				}
			}()
			NewSpace(sz)
		}()
	}
}

func TestAllocBasics(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegRuntime, 10)
	if r.Len() != 10 {
		t.Fatalf("range length = %d, want 10", r.Len())
	}
	if s.NumPages() != 10 {
		t.Fatalf("NumPages = %d, want 10", s.NumPages())
	}
	if got := s.Count(SegRuntime, Inactive); got != 10 {
		t.Fatalf("runtime inactive = %d, want 10", got)
	}
	for id := r.Start; id < r.End; id++ {
		if s.State(id) != Inactive {
			t.Fatalf("page %d state %v, want inactive", id, s.State(id))
		}
		if !s.Accessed(id) {
			t.Fatalf("page %d should be born accessed", id)
		}
		if s.SegmentOf(id) != SegRuntime {
			t.Fatalf("page %d segment %v, want runtime", id, s.SegmentOf(id))
		}
	}
}

func TestAllocSegmentsAreContiguous(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	rt := s.Alloc(SegRuntime, 5)
	init := s.Alloc(SegInit, 7)
	exec := s.Alloc(SegExec, 3)
	if rt.End != init.Start || init.End != exec.Start {
		t.Fatalf("segments not contiguous: %+v %+v %+v", rt, init, exec)
	}
}

func TestAllocBytesRoundsUp(t *testing.T) {
	s := NewSpace(4096)
	r := s.AllocBytes(SegInit, 4097)
	if r.Len() != 2 {
		t.Fatalf("AllocBytes(4097) = %d pages, want 2", r.Len())
	}
	if s.AllocBytes(SegInit, 0).Len() != 0 {
		t.Fatal("AllocBytes(0) should allocate nothing")
	}
}

// TestReserveMakesAllocAllocationFree allocates a container's three
// segments into spaces reserved for exactly their total: no Alloc call may
// allocate, and the result must match an unreserved space.
func TestReserveMakesAllocAllocationFree(t *testing.T) {
	const runtime, init, exec = 7000, 30001, 4097 // spans summary words
	build := func(s *Space) {
		s.Alloc(SegRuntime, runtime)
		s.Alloc(SegInit, init)
		s.Alloc(SegExec, exec)
	}
	const runs = 10
	spaces := make([]*Space, runs+1) // AllocsPerRun adds one warm-up call
	for i := range spaces {
		spaces[i] = NewSpace(DefaultPageSize)
		spaces[i].Reserve(runtime + init + exec)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { build(spaces[next]); next++ }); n != 0 {
		t.Fatalf("Alloc within a reservation made %v allocations per container, want 0", n)
	}
	want := NewSpace(DefaultPageSize)
	build(want)
	got := spaces[0]
	all := Range{Start: 0, End: PageID(want.NumPages())}
	for st := Inactive; st < numStates; st++ {
		if g, w := got.CountInRange(all, st), want.CountInRange(all, st); g != w {
			t.Fatalf("CountInRange(%v) = %d, want %d", st, g, w)
		}
	}
	for seg := Segment(0); seg < NumSegments; seg++ {
		if g, w := got.Count(seg, Inactive), want.Count(seg, Inactive); g != w {
			t.Fatalf("Count(%v, inactive) = %d, want %d", seg, g, w)
		}
	}
	if g, w := got.CountAccessed(all), want.CountAccessed(all); g != w {
		t.Fatalf("CountAccessed = %d, want %d", g, w)
	}
	// Growth within the reservation only lengthens the slices: the words it
	// exposes were zeroed when the capacity was allocated, so no Hot or
	// Remote bit or summary bit of the new pages may be set.
	words := (got.NumPages() + 63) / 64
	for _, st := range []State{Hot, Remote} {
		bits := got.stateBits[st].words
		if len(bits) < words {
			t.Fatalf("%v bitset has %d words, want at least %d", st, len(bits), words)
		}
		for w, x := range bits {
			if x != 0 {
				t.Fatalf("%v word %d = %#x after Reserve and Alloc, want 0", st, w, x)
			}
		}
		for sw := 0; sw*numStates < len(got.summary); sw++ {
			if x := got.summary[sw*numStates+int(st)]; x != 0 {
				t.Fatalf("%v summary word %d = %#x after Reserve and Alloc, want 0", st, sw, x)
			}
		}
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(-1) did not panic")
		}
	}()
	s.Alloc(SegExec, -1)
}

func TestSetStateMaintainsCounters(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegInit, 4)
	s.SetState(r.Start, Hot)
	s.SetState(r.Start+1, Remote)
	if got := s.Count(SegInit, Inactive); got != 2 {
		t.Errorf("inactive = %d, want 2", got)
	}
	if got := s.Count(SegInit, Hot); got != 1 {
		t.Errorf("hot = %d, want 1", got)
	}
	if got := s.Count(SegInit, Remote); got != 1 {
		t.Errorf("remote = %d, want 1", got)
	}
	// Same-state transition is a no-op.
	s.SetState(r.Start, Hot)
	if got := s.Count(SegInit, Hot); got != 1 {
		t.Errorf("hot after no-op = %d, want 1", got)
	}
}

// TestOutOfRangeIDPanics checks that probing or setting a never-allocated
// page panics instead of reading as some state — including ids inside the
// last bitset word.
func TestOutOfRangeIDPanics(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	s.Alloc(SegRuntime, 10)
	for _, id := range []PageID{-1, 10, 63, 64, 1000} {
		for name, probe := range map[string]func(){
			"State":     func() { s.State(id) },
			"SegmentOf": func() { s.SegmentOf(id) },
			"Touch":     func() { s.Touch(id) },
			"SetState":  func() { s.SetState(id, Hot) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a 10-page space did not panic", name, id)
					}
				}()
				probe()
			}()
		}
	}
}

func TestTouchSetsAccessBit(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegRuntime, 1)
	s.ClearAccessed(r.Start)
	if s.Accessed(r.Start) {
		t.Fatal("access bit should be clear")
	}
	if st := s.Touch(r.Start); st != Inactive {
		t.Fatalf("Touch returned %v, want inactive", st)
	}
	if !s.Accessed(r.Start) {
		t.Fatal("Touch did not set access bit")
	}
}

// ScanAndClear invokes fn for every page in r whose access bit is set, then
// clears the bit — a page-table Accessed-bit scan over the bitset's
// word-skipping walk. The policies' own scans (TMO's idle prefix, DAMON's
// sampling) do not need it; the tests use it to drive and check access bits.
func (s *Space) ScanAndClear(r Range, fn func(PageID)) {
	if fn != nil {
		s.accessed.ForEachSet(int(r.Start), int(r.End), func(i int) { fn(PageID(i)) })
	}
	s.accessed.ClearRange(int(r.Start), int(r.End))
}

// CountAccessed tallies set access bits in r without clearing them.
func (s *Space) CountAccessed(r Range) int {
	return s.accessed.CountRange(int(r.Start), int(r.End))
}

// TestIdlePrefixStopsMidWord pins the budget edge of TMO's step: when the
// max-th idle page falls inside a word, the prefix ends right after it, so
// clearing the prefix's access bits clears accessed pages before it and
// keeps those after it.
func TestIdlePrefixStopsMidWord(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegRuntime, 128)
	s.ScanAndClear(r, nil)
	for _, id := range []PageID{3, 10, 40, 70} {
		s.Touch(id)
	}
	s.SetState(5, Remote) // not local: neither idle nor cleared
	s.Touch(5)
	p, n := s.Prefix(r, Idle, 8)
	// Idle local pages in order: 0 1 2 4 6 7 8 9 — the 8th is page 9.
	if want := (Range{Start: 0, End: 10}); n != 8 || p != want {
		t.Fatalf("Prefix(Idle, 8) = %v (%d pages), want %v (8)", p, n, want)
	}
	s.ClearAccessedRange(p, Local)
	for id, acc := range map[PageID]bool{3: false, 5: true, 10: true, 40: true, 70: true} {
		if s.Accessed(id) != acc {
			t.Errorf("page %d accessed = %v, want %v", id, !acc, acc)
		}
	}
	// Without a budget the prefix is all of r; pages 10, 40 and 70 are
	// still accessed, page 3 is idle again.
	if p, n := s.Prefix(r, Idle, 0); n != 128-1-3 || p != r {
		t.Fatalf("unbounded prefix = %v with %d idle pages, want %v with %d", p, n, r, 128-1-3)
	}
	s.ClearAccessedRange(r, Local)
	if s.CountAccessed(r) != 1 || !s.Accessed(5) {
		t.Fatalf("clear left %d accessed pages, want only remote page 5", s.CountAccessed(r))
	}
	// Moving the idle pages takes every local page now, and leaves the
	// remote one.
	if moved := s.MoveRange(r, Idle, Remote); moved != 127 || s.CountState(Remote) != 128 {
		t.Fatalf("MoveRange(Idle, Remote) moved %d, remote %d; want 127, 128", moved, s.CountState(Remote))
	}
}

// TestLowestBits covers the truncation helper at its edges.
func TestLowestBits(t *testing.T) {
	for _, tc := range []struct {
		m    uint64
		k    int
		want uint64
	}{
		{0, 3, 0},
		{0b1011_0100, 0, 0},
		{0b1011_0100, 2, 0b0001_0100},
		{0b1011_0100, 4, 0b1011_0100},
		{0b1011_0100, 9, 0b1011_0100},
		{^uint64(0), 64, ^uint64(0)},
		{^uint64(0), 63, ^uint64(0) >> 1},
		{1 << 63, 1, 1 << 63},
	} {
		if got := LowestBits(tc.m, tc.k); got != tc.want {
			t.Errorf("LowestBits(%#b, %d) = %#b, want %#b", tc.m, tc.k, got, tc.want)
		}
	}
}

func TestScanAndClear(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegInit, 10)
	for id := r.Start; id < r.End; id++ {
		s.ClearAccessed(id)
	}
	s.Touch(r.Start + 2)
	s.Touch(r.Start + 5)
	var seen []PageID
	s.ScanAndClear(r, func(id PageID) { seen = append(seen, id) })
	if len(seen) != 2 || seen[0] != r.Start+2 || seen[1] != r.Start+5 {
		t.Fatalf("scan saw %v, want [2 5] offsets", seen)
	}
	// Bits must now be clear.
	count := 0
	s.ScanAndClear(r, func(PageID) { count++ })
	if count != 0 {
		t.Fatalf("second scan saw %d pages, want 0", count)
	}
}

func TestScanAndClearNilFn(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegInit, 3)
	s.ScanAndClear(r, nil) // must not panic
	if s.Accessed(r.Start) {
		t.Fatal("nil-fn scan should still clear bits")
	}
}

func TestCountInRange(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(SegRuntime, 10)
	s.SetState(r.Start+1, Remote)
	s.SetState(r.Start+2, Remote)
	s.SetState(r.Start+3, Hot)
	if got := s.CountInRange(r, Remote); got != 2 {
		t.Errorf("remote in range = %d, want 2", got)
	}
	if got := s.CountInRange(r, Inactive); got != 7 {
		t.Errorf("inactive in range = %d, want 7", got)
	}
	sub := Range{Start: r.Start, End: r.Start + 2}
	if got := s.CountInRange(sub, Remote); got != 1 {
		t.Errorf("remote in subrange = %d, want 1", got)
	}
}

func TestByteAccounting(t *testing.T) {
	s := NewSpace(4096)
	r := s.Alloc(SegInit, 100)
	s.SetState(r.Start, Remote)
	s.SetState(r.Start+1, Remote)
	s.SetState(r.Start+2, Hot)
	wantLocal := int64(98 * 4096)
	if got := s.LocalBytes(); got != wantLocal {
		t.Errorf("LocalBytes = %d, want %d", got, wantLocal)
	}
	if got := s.RemoteBytes(); got != int64(2*4096) {
		t.Errorf("RemoteBytes = %d, want %d", got, 2*4096)
	}
	if got := s.TotalBytes(); got != int64(100*4096) {
		t.Errorf("TotalBytes = %d, want %d", got, 100*4096)
	}
}

func TestBytesPagesConversion(t *testing.T) {
	s := NewSpace(4096)
	if got := s.BytesOf(3); got != 12288 {
		t.Errorf("BytesOf(3) = %d", got)
	}
	if got := s.PagesOf(1); got != 1 {
		t.Errorf("PagesOf(1) = %d, want 1", got)
	}
	if got := s.PagesOf(8192); got != 2 {
		t.Errorf("PagesOf(8192) = %d, want 2", got)
	}
	if got := s.PagesOf(0); got != 0 {
		t.Errorf("PagesOf(0) = %d, want 0", got)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Start: 10, End: 20}
	if r.Len() != 10 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(10) || !r.Contains(19) {
		t.Error("Contains should include boundaries [start, end)")
	}
	if r.Contains(9) || r.Contains(20) {
		t.Error("Contains should exclude outside pages")
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[State]string{Inactive: "inactive", Hot: "hot", Remote: "remote", Local: "local"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	segs := map[Segment]string{SegRuntime: "runtime", SegInit: "init", SegExec: "exec"}
	for sg, want := range segs {
		if sg.String() != want {
			t.Errorf("segment %d String() = %q, want %q", sg, sg.String(), want)
		}
	}
}

// Property: counters always equal a brute-force recount after arbitrary
// random operations.
func TestCountersMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(4096)
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				s.Alloc(Segment(rng.Intn(NumSegments)), rng.Intn(20))
			case 1:
				if s.NumPages() > 0 {
					s.SetState(PageID(rng.Intn(s.NumPages())), State(rng.Intn(numStates)))
				}
			case 2:
				if s.NumPages() > 0 {
					s.Touch(PageID(rng.Intn(s.NumPages())))
				}
			}
		}
		// Brute-force recount.
		var want [NumSegments][numStates]int
		for id := 0; id < s.NumPages(); id++ {
			want[s.SegmentOf(PageID(id))][s.State(PageID(id))]++
		}
		for seg := 0; seg < NumSegments; seg++ {
			for st := 0; st < numStates; st++ {
				if got := s.Count(Segment(seg), State(st)); got != want[seg][st] {
					t.Logf("seed %d: count[%v][%v] = %d, want %d", seed, Segment(seg), State(st), got, want[seg][st])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
