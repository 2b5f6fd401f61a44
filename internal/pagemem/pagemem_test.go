package pagemem

import (
	"math/rand"
	"slices"
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
	r := s.Alloc(10)
	if r.Len() != 10 {
		t.Fatalf("range length = %d, want 10", r.Len())
	}
	if s.NumPages() != 10 {
		t.Fatalf("NumPages = %d, want 10", s.NumPages())
	}
	if got := s.CountInRange(r, Inactive); got != 10 {
		t.Fatalf("inactive = %d, want 10", got)
	}
	for id := r.Start; id < r.End; id++ {
		if s.State(id) != Inactive {
			t.Fatalf("page %d state %v, want inactive", id, s.State(id))
		}
	}
}

func TestAllocSegmentsAreContiguous(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	rt := s.Alloc(5)
	init := s.Alloc(7)
	exec := s.Alloc(3)
	if rt.End != init.Start || init.End != exec.Start {
		t.Fatalf("segments not contiguous: %+v %+v %+v", rt, init, exec)
	}
}

func TestAllocBytesRoundsUp(t *testing.T) {
	s := NewSpace(4096)
	r := s.AllocBytes(4097)
	if r.Len() != 2 {
		t.Fatalf("AllocBytes(4097) = %d pages, want 2", r.Len())
	}
	if s.AllocBytes(0).Len() != 0 {
		t.Fatal("AllocBytes(0) should allocate nothing")
	}
}

// TestReserveMakesAllocAllocationFree allocates a container's three
// lifecycle stages into reserved spaces: no Alloc call may allocate, and the result
// must match an unreserved space.
func TestReserveMakesAllocAllocationFree(t *testing.T) {
	const runtime, init, exec = 7000, 30001, 4097
	build := func(s *Space) {
		s.Alloc(runtime)
		s.Alloc(init)
		s.Alloc(exec)
	}
	const runs = 10
	spaces := make([]*Space, runs+1) // AllocsPerRun adds one warm-up call
	for i := range spaces {
		spaces[i] = NewSpace(DefaultPageSize)
		spaces[i].Reserve()
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
	// Growth within the reservation changes no page's state: the three
	// stages are one Inactive run, and no page is Hot or Remote.
	if want := []stateRun{{start: 0, st: Inactive}}; !slices.Equal(got.runs, want) {
		t.Fatalf("runs after Reserve and Alloc = %v, want %v", got.runs, want)
	}
	if h, r := got.CountState(Hot), got.CountState(Remote); h != 0 || r != 0 {
		t.Fatalf("hot %d, remote %d pages after Reserve and Alloc, want 0", h, r)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(-1) did not panic")
		}
	}()
	s.Alloc(-1)
}

func TestSetStateMaintainsCounters(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(4)
	s.SetState(r.Start, Hot)
	s.SetState(r.Start+1, Remote)
	if got := s.CountInRange(r, Inactive); got != 2 {
		t.Errorf("inactive = %d, want 2", got)
	}
	if got := s.CountInRange(r, Hot); got != 1 {
		t.Errorf("hot = %d, want 1", got)
	}
	if got := s.CountInRange(r, Remote); got != 1 {
		t.Errorf("remote = %d, want 1", got)
	}
	// Same-state transition is a no-op.
	s.SetState(r.Start, Hot)
	if got := s.CountInRange(r, Hot); got != 1 {
		t.Errorf("hot after no-op = %d, want 1", got)
	}
}

// TestOutOfRangeIDPanics checks that probing or setting a never-allocated
// page panics instead of reading as some state — including ids just past
// the last page.
func TestOutOfRangeIDPanics(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	s.Alloc(10)
	for _, id := range []PageID{-1, 10, 63, 64, 1000} {
		for name, probe := range map[string]func(){
			"State":    func() { s.State(id) },
			"SetState": func() { s.SetState(id, Hot) },
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

func TestCountInRange(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	r := s.Alloc(10)
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
	r := s.Alloc(100)
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
				s.Alloc(rng.Intn(20))
			case 1:
				if s.NumPages() > 0 {
					s.SetState(PageID(rng.Intn(s.NumPages())), State(rng.Intn(numStates)))
				}
			case 2:
				if n := s.NumPages(); n > 0 {
					a, b := PageID(rng.Intn(n)), PageID(rng.Intn(n+1))
					s.MoveRange(Range{Start: min(a, b), End: max(a, b)}, State(rng.Intn(int(Local)+1)), State(rng.Intn(numStates)))
				}
			}
		}
		// Brute-force recount.
		var want [numStates]int
		for id := 0; id < s.NumPages(); id++ {
			want[s.State(PageID(id))]++
		}
		all := Range{Start: 0, End: PageID(s.NumPages())}
		for st := State(0); st < numStates; st++ {
			if got := s.CountState(st); got != want[st] {
				t.Logf("seed %d: CountState(%v) = %d, want %d", seed, st, got, want[st])
				return false
			}
			if got := s.CountInRange(all, st); got != want[st] {
				t.Logf("seed %d: CountInRange(all, %v) = %d, want %d", seed, st, got, want[st])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
