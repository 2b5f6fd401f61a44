// Package pagemem models a container's memory at page granularity.
//
// A Space is a growable array of fixed-size pages. Each page carries the
// state the offloading policies act on (inactive / hot / remote), the
// lifecycle segment it was allocated in (runtime / init / exec), and an
// access bit, mirroring the page-table Accessed bit that the paper's
// mechanisms (and DAMON/TMO) sample. Per-state page totals are maintained
// incrementally so "how much local memory does this container hold" is O(1),
// and per-state summary words (one bit per 64-page word) let every walk
// skip empty words, so a scan costs O(occupied words + range/4096).
// Offload victims are Selections, (range, state) pairs: Prefix counts one
// up to a page budget and MoveRange moves it, each in one walk.
package pagemem

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// DefaultPageSize is the page size used throughout the simulation, matching
// the 4 KiB base pages the paper's kernel implementation manages.
const DefaultPageSize = 4096

// PageID indexes a page within a Space.
type PageID int32

// State is the placement/offloading state of an allocated page.
type State uint8

const (
	// Inactive pages sit in their Pucket's inactive list: allocated but not
	// re-accessed since the last demotion; candidates for offloading.
	Inactive State = iota
	// Hot pages live in the shared hot page pool: they were accessed after
	// allocation (or recalled from remote) and are kept local.
	Hot
	// Remote pages have been offloaded to the memory pool; touching one
	// triggers a page fault and a remote fetch.
	Remote
	numStates = iota
)

// String implements fmt.Stringer for diagnostics.
func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Hot:
		return "hot"
	case Remote:
		return "remote"
	case Local:
		return "local"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Segment is the container-lifecycle stage a page was allocated in
// (paper §3: runtime, init, and execution segments).
type Segment uint8

const (
	// SegRuntime pages are allocated while the language runtime loads.
	SegRuntime Segment = iota
	// SegInit pages are allocated during user-code initialization.
	SegInit
	// SegExec is the segment of per-request temporaries, freed on
	// completion. The platform charges them by count and allocates no pages
	// for them.
	SegExec
	// NumSegments is the number of lifecycle segments.
	NumSegments = iota
)

// String implements fmt.Stringer.
func (s Segment) String() string {
	switch s {
	case SegRuntime:
		return "runtime"
	case SegInit:
		return "init"
	case SegExec:
		return "exec"
	default:
		return fmt.Sprintf("segment(%d)", uint8(s))
	}
}

// Range is a half-open interval of pages [Start, End).
type Range struct {
	Start, End PageID
}

// Len returns the number of pages in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Contains reports whether id falls inside the range.
func (r Range) Contains(id PageID) bool { return id >= r.Start && id < r.End }

// Space is a page-granularity address space for one container. The zero
// value is not usable; construct with NewSpace.
//
// Page state lives only in bitsets: stateBits[st] marks every page in state
// st, so a page's state is a few bit probes and every bulk move (offload,
// recall, rollback) is a word operation. Each state bitset
// has a summary, one bit per 64-page word set iff that word holds a page of
// the state, so walks skip empty words 64 at a time (see Words). A page's
// segment lives only in segRuns.
type Space struct {
	pageSize int
	// n is the number of page slots ever allocated.
	n         int
	accessed  Bitset
	stateBits [numStates]Bitset
	// summary[sw*numStates+st] has bit j set iff word sw*64+j of
	// stateBits[st] is nonzero: all states' summaries share one slice, so
	// growing them is one append. Like Bitset.words it is never shortened,
	// so the words growth exposes are already zero.
	summary []uint64
	// total[st] is the number of pages in state st.
	total [numStates]int
	// segRuns records the contiguous allocation runs sharing a segment
	// (segments are piecewise constant by construction).
	segRuns []segRun
}

// segRun is a maximal range of pages allocated to one segment; its end is
// the next run's start (or the allocated page count for the final run).
type segRun struct {
	start int
	seg   Segment
}

// move moves the masked pages of word w, all currently in state from, to
// state to, keeping both states' summary bits and totals. mask must be
// nonzero, or the target's summary bit could be set for an empty word.
func (s *Space) move(w int, mask uint64, from, to State) {
	src, dst := &s.stateBits[from].words[w], &s.stateBits[to].words[w]
	*src &^= mask
	*dst |= mask
	sum, bit := s.summary[w/64*numStates:], uint64(1)<<(uint(w)%64)
	if *src == 0 {
		sum[from] &^= bit
	}
	sum[to] |= bit
	k := bits.OnesCount64(mask)
	s.total[from] -= k
	s.total[to] += k
}

// NewSpace returns an empty address space with the given page size in bytes.
// pageSize must be positive; use DefaultPageSize unless a test needs tiny
// pages.
func NewSpace(pageSize int) *Space {
	if pageSize <= 0 {
		panic("pagemem: page size must be positive")
	}
	return &Space{pageSize: pageSize}
}

// Reserve sizes the space's page state for pages page slots, one
// allocation per bitset plus room for one run per segment, so Alloc calls
// up to that total allocate nothing while each segment is allocated in one
// run. It changes no page: a container whose segment sizes are known at
// launch reserves their sum once instead of growing per segment.
func (s *Space) Reserve(pages int) {
	s.segRuns = slices.Grow(s.segRuns, NumSegments)
	s.accessed.Reserve(pages)
	for st := range s.stateBits {
		s.stateBits[st].Reserve(pages)
	}
	if need := (pages + 64*64 - 1) / (64 * 64) * numStates; need > len(s.summary) {
		s.summary = slices.Grow(s.summary, need-len(s.summary))
	}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// NumPages returns the total number of pages allocated.
func (s *Space) NumPages() int { return s.n }

// Alloc appends n pages of the given segment in the Inactive state and
// returns their range. Newly allocated pages carry a set access bit: the
// allocation itself wrote them, exactly as a faulted-in page is young in the
// kernel.
func (s *Space) Alloc(seg Segment, n int) Range {
	if n < 0 {
		panic("pagemem: negative allocation")
	}
	start := s.n
	total := start + n
	if k := len(s.segRuns); n > 0 && (k == 0 || s.segRuns[k-1].seg != seg) {
		s.segRuns = append(s.segRuns, segRun{start: start, seg: seg})
	}
	s.n = total
	// Pre-grow every bitset to the new page count so hot-path Set/Clear
	// calls never hit the grow check's slow path.
	s.accessed.Grow(total)
	for st := range s.stateBits {
		s.stateBits[st].Grow(total)
	}
	if need, k := (total+64*64-1)/(64*64)*numStates, len(s.summary); k < need {
		s.summary = slices.Grow(s.summary, need-k)[:need]
	}
	s.accessed.SetRange(start, total)
	s.stateBits[Inactive].SetRange(start, total)
	// Only words that gain a page get a summary bit: Alloc(seg, 0) with s.n
	// mid-word must not mark a word whose Inactive bits may all be clear.
	if n > 0 {
		for w := start / 64; w < (total+63)/64; w++ {
			s.summary[w/64*numStates+int(Inactive)] |= 1 << (uint(w) % 64)
		}
	}
	s.total[Inactive] += n
	return Range{Start: PageID(start), End: PageID(total)}
}

// AllocBytes allocates enough pages to hold the given byte count, rounding
// up to whole pages.
func (s *Space) AllocBytes(seg Segment, bytes int64) Range {
	if bytes < 0 {
		panic("pagemem: negative byte allocation")
	}
	n := int((bytes + int64(s.pageSize) - 1) / int64(s.pageSize))
	return s.Alloc(seg, n)
}

// clampRange narrows r to the allocated page span and returns it with the
// span of words [w0, w1) it covers, empty when no page remains.
func (s *Space) clampRange(r Range) (clamped Range, w0, w1 int) {
	if int(r.End) > s.n {
		r.End = PageID(s.n)
	}
	if r.End <= r.Start {
		return r, 0, 0
	}
	return r, int(r.Start) / 64, (int(r.End) + 63) / 64
}

// WordMask returns the bitmask of the range's pages within the 64-page word
// w, covering pages [w*64, w*64+64) — the per-word mask the word-at-a-time
// page walks intersect with StateWord. It is zero when w lies outside the
// range.
func (r Range) WordMask(w int) uint64 {
	base := w * 64
	if base >= int(r.End) || base+64 <= int(r.Start) {
		return 0
	}
	m := ^uint64(0)
	if base < int(r.Start) {
		m &= ^uint64(0) << (uint(r.Start) % 64)
	}
	if int(r.End) < base+64 {
		m &= ^uint64(0) >> (64 - uint(r.End)%64)
	}
	return m
}

// LowestBits returns the k lowest set bits of m (all of m when it has at
// most k) — how Prefix finds the budget-th page inside a word.
func LowestBits(m uint64, k int) uint64 {
	if k >= bits.OnesCount64(m) {
		return m
	}
	var low uint64
	for ; k > 0; k-- {
		b := m & -m
		low |= b
		m ^= b
	}
	return low
}

// checkID panics unless id is an allocated page slot.
func (s *Space) checkID(id PageID) {
	if id < 0 || int(id) >= s.n {
		panic(fmt.Sprintf("pagemem: page %d out of range [0, %d)", id, s.n))
	}
}

// State returns the state of page id. Probing an unallocated id panics.
func (s *Space) State(id PageID) State {
	s.checkID(id)
	// Every state bitset is grown to n pages, so the probes index directly,
	// and an allocated page is in exactly one state.
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	switch {
	case s.stateBits[Inactive].words[w]&bit != 0:
		return Inactive
	case s.stateBits[Hot].words[w]&bit != 0:
		return Hot
	}
	return Remote
}

// SegmentOf returns the lifecycle segment page id was allocated in.
func (s *Space) SegmentOf(id PageID) Segment {
	s.checkID(id)
	i := sort.Search(len(s.segRuns), func(j int) bool { return s.segRuns[j].start > int(id) })
	return s.segRuns[i-1].seg
}

// SetState transitions page id to st, keeping the aggregate counters
// consistent. Setting an unallocated id panics.
func (s *Space) SetState(id PageID, st State) {
	old := s.State(id)
	if old == st {
		return
	}
	s.move(int(id)/64, 1<<(uint(id)%64), old, st)
}

// Local and Idle are not page states but selectors. Passed to Words,
// Prefix, MoveRange, ClearAccessedRange or a Selection (and Local to
// StateWord), Local selects every locally resident page (Inactive or Hot),
// and Idle the local pages whose access bit is clear (TMO's victims).
const (
	Local State = numStates + iota
	Idle
)

// Selection selects the pages of R in state St (a page state, Local or
// Idle), in page order: how a policy names its offload victims.
type Selection struct {
	R  Range
	St State
}

// Prefix returns the shortest prefix of r that holds n pages in state st,
// and how many it holds: n, or fewer when r holds fewer, in which case the
// prefix is all of r. n <= 0 also selects all of r. The walk stops at the
// n-th page, so a budgeted count costs the words up to it.
func (s *Space) Prefix(r Range, st State, n int) (Range, int) {
	k, word, idle := 0, st, st == Idle
	if idle {
		word = Local
	}
	for it := s.Words(r, st); it.Next(); {
		for w := it.Start; w < it.End; w++ {
			m := s.StateWord(w, word) & r.WordMask(w)
			if idle {
				m &^= s.accessed.words[w]
			}
			c := bits.OnesCount64(m)
			if n > 0 && k+c >= n {
				last := 64 - bits.LeadingZeros64(LowestBits(m, n-k))
				return Range{Start: r.Start, End: PageID(w*64 + last)}, n
			}
			k += c
		}
	}
	return r, k
}

// MoveRange moves every page of r in state from (a page state, Local or
// Idle) to the page state to, keeping the summaries and totals, and returns
// how many pages moved.
func (s *Space) MoveRange(r Range, from, to State) int {
	moved, word, idle := 0, from, from == Idle
	if idle {
		word = Local
	}
	for it := s.Words(r, from); it.Next(); {
		for w := it.Start; w < it.End; w++ {
			sel := s.StateWord(w, word) & r.WordMask(w)
			if idle {
				sel &^= s.accessed.words[w]
			}
			for st := Inactive; sel != 0 && st < numStates; st++ {
				if m := s.stateBits[st].words[w] & sel; m != 0 && st != to {
					s.move(w, m, st, to)
					moved += bits.OnesCount64(m)
				}
			}
		}
	}
	return moved
}

// ClearAccessedRange clears the access bits of the pages of r in state st
// (a page state, Local or Idle, whose pages' bits are already clear).
func (s *Space) ClearAccessedRange(r Range, st State) {
	if st == Idle {
		return
	}
	for it := s.Words(r, st); it.Next(); {
		for w := it.Start; w < it.End; w++ {
			s.accessed.words[w] &^= s.StateWord(w, st) & r.WordMask(w)
		}
	}
}

// WordIter walks, in ascending order, the 64-page words overlapping a
// range that hold a page in any of a set of states, one run of consecutive
// such words at a time:
//
//	for it := s.Words(r, pagemem.Hot); it.Next(); {
//		for w := it.Start; w < it.End; w++ {
//			hot := s.StateWord(w, pagemem.Hot) & r.WordMask(w)
//			...
//		}
//	}
//
// It reads one summary word per 64 words and skips empty words whole, and
// the caller walks each run with a plain counter loop, so a dense range
// costs what a word-by-word loop does. A run's edge word may hold its pages
// outside r, hence the WordMask. A summary word is read when the walk
// reaches it, so the body may move pages out of the walked states anywhere
// (an emptied word ahead may still be visited, and then reads zero) but must
// not move pages into them ahead of the cursor.
type WordIter struct {
	// Start and End bound the current run of occupied words, valid after
	// Next returns true.
	Start, End int
	s          *Space
	// states has bit st set for every walked state.
	states uint8
	// span is the word range [w0, w1), held as a Range one level up: its
	// WordMask(sw) masks summary word sw to the span.
	span Range
	// sw is the current summary word and occ its occupied words not yet
	// walked.
	sw  int
	occ uint64
}

// Words returns a walk over the words overlapping r that hold a page in any
// of sts (Local or Idle: Inactive or Hot, so an Idle walk may visit a word
// whose local pages are all accessed).
func (s *Space) Words(r Range, sts ...State) WordIter {
	_, w0, w1 := s.clampRange(r)
	it := WordIter{s: s, span: Range{Start: PageID(w0), End: PageID(w1)}, sw: w0/64 - 1}
	for _, st := range sts {
		if st == Local || st == Idle {
			it.states |= 1<<Inactive | 1<<Hot
		} else {
			it.states |= 1 << st
		}
	}
	return it
}

// Next advances to the next run of occupied words and reports whether
// there is one, loading summary words until one has an occupied word left.
func (it *WordIter) Next() bool {
	for it.occ == 0 {
		it.sw++
		if PageID(it.sw*64) >= it.span.End {
			return false
		}
		sum := it.s.summary[it.sw*numStates : it.sw*numStates+numStates]
		for st, word := range sum {
			if it.states&(1<<st) != 0 {
				it.occ |= word
			}
		}
		it.occ &= it.span.WordMask(it.sw)
	}
	lo := bits.TrailingZeros64(it.occ)
	it.Start = it.sw*64 + lo
	it.End = it.Start + bits.TrailingZeros64(^(it.occ >> uint(lo)))
	// Adding the lowest set bit carries through the run and clears it.
	it.occ &= it.occ + it.occ&-it.occ
	return true
}

// Touch sets the access bit of page id and returns its current state so the
// caller can decide whether a promotion or a remote fault is needed.
func (s *Space) Touch(id PageID) State {
	st := s.State(id)
	s.accessed.Set(int(id))
	return st
}

// TouchRange sets the access bits of every page in r in bulk — the fast path
// for request spans, which touch contiguous page runs.
func (s *Space) TouchRange(r Range) {
	r, _, _ = s.clampRange(r)
	s.accessed.SetRange(int(r.Start), int(r.End))
}

// StateWord returns the 64-page occupancy mask of state st (Local: Inactive
// or Hot) covering pages [w*64, w*64+64). Together with TransitionMasked it
// lets hot loops (request touches, rollback) move whole words of pages
// without per-page calls.
func (s *Space) StateWord(w int, st State) uint64 {
	if st == Local {
		return s.stateBits[Inactive].word(w) | s.stateBits[Hot].word(w)
	}
	return s.stateBits[st].word(w)
}

// TransitionMasked moves every page in the 64-page word w whose mask bit is
// set from state `from` to state `to`. Every masked page must currently be in
// state `from` (callers derive mask from StateWord).
func (s *Space) TransitionMasked(w int, mask uint64, from, to State) {
	if mask == 0 {
		return
	}
	s.move(w, mask, from, to)
}

// ClearAccessedMasked clears the access bits of the masked pages of the
// 64-page word w.
func (s *Space) ClearAccessedMasked(w int, mask uint64) { s.accessed.words[w] &^= mask }

// Accessed reports the access bit of page id without clearing it.
func (s *Space) Accessed(id PageID) bool { return s.accessed.Get(int(id)) }

// ClearAccessed clears the access bit of page id.
func (s *Space) ClearAccessed(id PageID) { s.accessed.Clear(int(id)) }

// CountInRange tallies pages of the given state inside r by popcounting
// the state's occupied words.
func (s *Space) CountInRange(r Range, st State) int {
	n := 0
	for it := s.Words(r, st); it.Next(); {
		for w := it.Start; w < it.End; w++ {
			n += bits.OnesCount64(s.stateBits[st].words[w] & r.WordMask(w))
		}
	}
	return n
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

// CountState returns the number of pages in a state across all segments.
func (s *Space) CountState(st State) int { return s.total[st] }

// LocalBytes reports resident local memory: inactive plus hot pages.
func (s *Space) LocalBytes() int64 {
	return int64(s.CountState(Inactive)+s.CountState(Hot)) * int64(s.pageSize)
}

// RemoteBytes reports memory currently offloaded to the pool.
func (s *Space) RemoteBytes() int64 {
	return int64(s.CountState(Remote)) * int64(s.pageSize)
}

// TotalBytes reports all allocated memory, local plus remote.
func (s *Space) TotalBytes() int64 { return s.LocalBytes() + s.RemoteBytes() }

// BytesOf converts a page count to bytes at this space's page size.
func (s *Space) BytesOf(pages int) int64 { return int64(pages) * int64(s.pageSize) }

// PagesOf converts a byte count to pages, rounding up.
func (s *Space) PagesOf(bytes int64) int {
	return int((bytes + int64(s.pageSize) - 1) / int64(s.pageSize))
}
