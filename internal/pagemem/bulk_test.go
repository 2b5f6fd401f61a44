package pagemem

import "testing"

// TestMoveRangeMatchesSetState checks a range's state count against
// per-page State probes, and a range move against per-page SetState. Every
// third page is Hot, so the space is one run per page or two; moving the
// second 64 pages' Inactive pages to Hot leaves them all Hot.
func TestMoveRangeMatchesSetState(t *testing.T) {
	s := NewSpace(DefaultPageSize)
	s.Alloc(128)
	for id := PageID(0); id < 128; id += 3 {
		s.SetState(id, Hot)
	}
	for w := 0; w < 2; w++ {
		r := Range{Start: PageID(w * 64), End: PageID(w*64 + 64)}
		want := 0
		for id := r.Start; id < r.End; id++ {
			if s.State(id) == Inactive {
				want++
			}
		}
		if got := s.CountInRange(r, Inactive); got != want {
			t.Fatalf("CountInRange(%v, Inactive) = %d, want %d", r, got, want)
		}
	}
	second := Range{Start: 64, End: 128}
	want := s.CountInRange(second, Inactive)
	if moved := s.MoveRange(second, Inactive, Hot); moved != want {
		t.Fatalf("MoveRange(%v, Inactive, Hot) moved %d, want %d", second, moved, want)
	}
	for id := second.Start; id < second.End; id++ {
		if st := s.State(id); st != Hot {
			t.Fatalf("page %d after MoveRange: state %v, want %v", id, st, Hot)
		}
	}
	if n := s.CountInRange(second, Inactive); n != 0 {
		t.Fatalf("inactive pages left after the range move: %d", n)
	}
}
