package pagemem

import (
	"fmt"
	"math/bits"
	"sort"
)

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

// Count returns the number of pages in the given segment and state,
// summed over the segment's allocation runs.
func (s *Space) Count(seg Segment, st State) int {
	n := 0
	for i, run := range s.segRuns {
		if run.seg != seg {
			continue
		}
		end := s.n
		if i+1 < len(s.segRuns) {
			end = s.segRuns[i+1].start
		}
		n += s.CountInRange(Range{Start: PageID(run.start), End: PageID(end)}, st)
	}
	return n
}

// Contains reports whether id falls inside the range.
func (r Range) Contains(id PageID) bool { return id >= r.Start && id < r.End }

// NumPages returns the total number of pages allocated.
func (s *Space) NumPages() int { return s.n }

// SegmentOf returns the lifecycle segment page id was allocated in.
func (s *Space) SegmentOf(id PageID) Segment {
	s.checkID(id)
	i := sort.Search(len(s.segRuns), func(j int) bool { return s.segRuns[j].start > int(id) })
	return s.segRuns[i-1].seg
}

// Touch sets the access bit of page id and returns its state.
func (s *Space) Touch(id PageID) State {
	st := s.State(id)
	s.accessed.Set(int(id))
	return st
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	w := i / 64
	if w >= len(b.words) {
		b.grow(i)
	}
	b.words[w] |= 1 << (uint(i) % 64)
}

// ForEachSet calls fn for every set bit in [start, end), skipping zero words
// whole. fn receives the bit index.
func (b *Bitset) ForEachSet(start, end int, fn func(int)) {
	end = min(end, len(b.words)*64)
	for i := start; i < end; i = (i/64 + 1) * 64 {
		w := i / 64
		word := b.words[w] >> (uint(i) % 64) << (uint(i) % 64)
		if hi := end - w*64; hi < 64 {
			word &= 1<<uint(hi) - 1
		}
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
	}
}
