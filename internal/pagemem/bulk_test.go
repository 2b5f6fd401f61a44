package pagemem

import "testing"

// TestTouchRangeMatchesPerPage checks the bulk access-bit path against Touch
// on every page, including unaligned range edges.
func TestTouchRangeMatchesPerPage(t *testing.T) {
	a := NewSpace(DefaultPageSize)
	b := NewSpace(DefaultPageSize)
	for _, s := range []*Space{a, b} {
		s.Alloc(SegRuntime, 200)
		for id := PageID(0); id < 200; id++ {
			s.ClearAccessed(id)
		}
	}
	r := Range{Start: 3, End: 197}
	a.TouchRange(r)
	for id := r.Start; id < r.End; id++ {
		b.Touch(id)
	}
	for id := PageID(0); id < 200; id++ {
		if a.Accessed(id) != b.Accessed(id) {
			t.Fatalf("page %d: TouchRange accessed=%v, Touch accessed=%v",
				id, a.Accessed(id), b.Accessed(id))
		}
	}
}

// TestStateWordAndTransitionMasked checks the word-level state snapshot and
// masked transition against per-page SetState.
func TestStateWordAndTransitionMasked(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	s.Alloc(SegRuntime, 128)
	for id := PageID(0); id < 128; id += 3 {
		s.SetState(id, Hot)
	}
	for w := 0; w < 2; w++ {
		var want uint64
		for b := 0; b < 64; b++ {
			if s.State(PageID(w*64+b)) == Inactive {
				want |= 1 << uint(b)
			}
		}
		if got := s.StateWord(w, Inactive); got != want {
			t.Fatalf("StateWord(%d, Inactive) = %#x, want %#x", w, got, want)
		}
	}
	mask := s.StateWord(1, Inactive)
	s.TransitionMasked(1, mask, Inactive, Hot)
	for b := 0; b < 64; b++ {
		id := PageID(64 + b)
		want := Hot
		if st := s.State(id); st != want {
			t.Fatalf("page %d after TransitionMasked: state %v, want %v", id, st, want)
		}
	}
	if n := s.CountInRange(Range{Start: 64, End: 128}, Inactive); n != 0 {
		t.Fatalf("inactive pages left after masked transition: %d", n)
	}
}
