package pagemem

import "fmt"

// The helpers below read or drive a Space page by page. Only tests need
// them: the engine itself works on ranges.

// checkID panics unless id is an allocated page slot.
func (s *Space) checkID(id PageID) {
	if id < 0 || int(id) >= s.n {
		panic(fmt.Sprintf("pagemem: page %d out of range [0, %d)", id, s.n))
	}
}

// State returns the state of page id. Probing an unallocated id panics.
func (s *Space) State(id PageID) State {
	s.checkID(id)
	return s.runs[s.runAt(id)].st
}

// SetState transitions page id to st, keeping the aggregate counters
// consistent. Setting an unallocated id panics.
func (s *Space) SetState(id PageID, st State) {
	if old := s.State(id); old != st {
		s.MoveRange(Range{Start: id, End: id + 1}, old, st)
	}
}

// Contains reports whether id falls inside the range.
func (r Range) Contains(id PageID) bool { return id >= r.Start && id < r.End }

// NumPages returns the total number of pages allocated.
func (s *Space) NumPages() int { return s.n }
