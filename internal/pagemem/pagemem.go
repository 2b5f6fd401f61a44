// Package pagemem models a container's memory at page granularity.
//
// A Space is a growable array of fixed-size pages. Each page carries the
// state the offloading policies act on (inactive / hot / remote). A
// lifecycle stage's pages are the Range its allocation returned, which the
// caller keeps (a Pucket is one). Accessed bits are not kept here: the
// paper's mechanism never reads them, and the baselines that sample them
// (TMO, DAMON) own theirs in internal/policy.
//
// Every mechanism acts on page ranges — a Pucket's sealed range, a DAMON
// region, a request span, a semi-warm drain — so page state is kept as
// runs: one sorted list of maximal page ranges that share a state. A range
// operation costs a binary search plus the runs it overlaps, however many
// pages those hold, and per-state totals make "how much local memory does
// this container hold" O(1). Offload victims are Selections, (range,
// state) pairs: Prefix counts one up to a page budget and MoveRange moves
// it.
package pagemem

import (
	"fmt"
	"slices"
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
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Range is a half-open interval of pages [Start, End).
type Range struct {
	Start, End PageID
}

// Len returns the number of pages in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Space is a page-granularity address space for one container. Construct
// it with NewSpace.
//
// Page state lives only in runs: runs[i] gives the state of pages
// [runs[i].start, runs[i+1].start), the last run ending at the page count.
// The list is canonical — starts strictly ascend from 0, and no two
// adjacent runs share a state — so a page's state is one binary search and
// every bulk move (offload, recall, rollback) rewrites only the runs it
// overlaps.
type Space struct {
	pageSize int
	// n is the number of page slots ever allocated.
	n    int
	runs []stateRun
	// spare is MoveRange's scratch for the runs it rewrites.
	spare []stateRun
	// total[st] is the number of pages in state st.
	total [numStates]int
}

// stateRun is a maximal range of pages in one state; its end is the next
// run's start (or the allocated page count for the final run).
type stateRun struct {
	start PageID
	st    State
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

// reservedRuns is the run-list capacity Reserve sets: room for the runtime
// and init allocations in different states plus one more run, so a launch
// appends without growing the list.
const reservedRuns = 3

// Reserve sizes the space's run list for reservedRuns runs, so a
// container's launch allocations append without growing it. It changes no
// page: a container whose stage sizes are known at launch reserves once
// instead of growing per stage.
func (s *Space) Reserve() {
	s.runs = slices.Grow(s.runs, reservedRuns)
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// Alloc appends n pages in the Inactive state and returns their range.
func (s *Space) Alloc(n int) Range {
	if n < 0 {
		panic("pagemem: negative allocation")
	}
	start := s.n
	total := start + n
	if n > 0 {
		s.runs = pushRun(s.runs, PageID(start), Inactive)
	}
	s.n = total
	s.total[Inactive] += n
	return Range{Start: PageID(start), End: PageID(total)}
}

// AllocBytes allocates enough pages to hold the given byte count, rounding
// up to whole pages.
func (s *Space) AllocBytes(bytes int64) Range {
	if bytes < 0 {
		panic("pagemem: negative byte allocation")
	}
	n := int((bytes + int64(s.pageSize) - 1) / int64(s.pageSize))
	return s.Alloc(n)
}

// pushRun appends a run of state st starting at page p, or extends the last
// run when it already has that state.
func pushRun(runs []stateRun, p PageID, st State) []stateRun {
	if k := len(runs); k > 0 && runs[k-1].st == st {
		return runs
	}
	return append(runs, stateRun{start: p, st: st})
}

// runAt returns the index of the run holding the allocated page p.
func (s *Space) runAt(p PageID) int {
	lo, hi := 0, len(s.runs)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].start <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// runEnd returns the page just past run i.
func (s *Space) runEnd(i int) PageID {
	if i+1 < len(s.runs) {
		return s.runs[i+1].start
	}
	return PageID(s.n)
}

// Local is not a page state but a selector. Passed to Prefix, MoveRange,
// Runs or a Selection, it selects every locally resident page (Inactive or
// Hot).
const Local State = numStates

// selects reports whether selector sel (a page state or Local) takes pages
// in state st.
func selects(sel, st State) bool {
	return sel == st || sel == Local && st != Remote
}

// Selection selects the pages of R in state St (a page state or Local), in
// page order: how a policy names its offload victims.
type Selection struct {
	R  Range
	St State
}

// stretchIter walks, in page order, the maximal stretches of a range's
// pages that a selector takes: the selected runs clipped to the range.
type stretchIter struct {
	s   *Space
	sel State
	end PageID
	// i is the next run to look at, p the first page not yet walked and
	// cur the run of the last stretch returned.
	i, cur int
	p      PageID
}

// stretches starts a walk over the pages of r that sel selects.
func (s *Space) stretches(r Range, sel State) stretchIter {
	it := stretchIter{s: s, sel: sel, end: min(r.End, PageID(s.n)), i: len(s.runs), p: r.Start}
	if it.p < it.end {
		it.i = s.runAt(it.p)
	}
	return it
}

// next returns the next stretch and its state, or false at the end.
func (it *stretchIter) next() (Range, State, bool) {
	s := it.s
	for ; it.i < len(s.runs) && s.runs[it.i].start < it.end; it.i++ {
		st := s.runs[it.i].st
		if !selects(it.sel, st) {
			continue
		}
		a, b := max(it.p, s.runs[it.i].start), min(s.runEnd(it.i), it.end)
		if a < b {
			it.p, it.cur = b, it.i
			it.i++
			return Range{Start: a, End: b}, st, true
		}
	}
	return Range{}, 0, false
}

// Prefix returns the shortest prefix of r that holds n pages in state st,
// and how many it holds: n, or fewer when r holds fewer, in which case the
// prefix is all of r. n <= 0 also selects all of r. The walk stops at the
// run holding the n-th page.
func (s *Space) Prefix(r Range, st State, n int) (Range, int) {
	k := 0
	for it := s.stretches(r, st); ; {
		x, _, ok := it.next()
		if !ok {
			return r, k
		}
		if n > 0 && k+x.Len() >= n {
			return Range{Start: r.Start, End: x.Start + PageID(n-k)}, n
		}
		k += x.Len()
	}
}

// MoveRange moves every page of r in state from (a page state or Local) to
// the page state to, keeping the totals, and returns how many pages moved.
// It rewrites the runs r overlaps, plus one neighbour each side to coalesce
// with, in one splice.
func (s *Space) MoveRange(r Range, from, to State) int {
	r.End = min(r.End, PageID(s.n))
	if r.Start >= r.End {
		return 0
	}
	lo, hi := max(s.runAt(r.Start)-1, 0), min(s.runAt(r.End-1)+2, len(s.runs))
	out, moved := s.spare[:0], 0
	it := s.stretches(r, from)
	x, st, ok := it.next()
	for i := lo; i < hi; i++ {
		p, end := s.runs[i].start, s.runEnd(i)
		// A stretch lies inside one run, so run i's stretches are the ones
		// starting before its end, and they share its state st.
		for ; ok && x.Start < end; x, st, ok = it.next() {
			if st == to {
				continue
			}
			if p < x.Start {
				out = pushRun(out, p, st)
			}
			out = pushRun(out, x.Start, to)
			s.total[st] -= x.Len()
			s.total[to] += x.Len()
			moved += x.Len()
			p = x.End
		}
		if p < end {
			out = pushRun(out, p, s.runs[i].st)
		}
	}
	if moved > 0 {
		s.runs = slices.Replace(s.runs, lo, hi, out...)
	}
	s.spare = out[:0]
	return moved
}

// RunIter walks, in page order, the maximal runs of one page state that
// overlap a range, each whole — it may start before the range and end past
// it — at a binary search plus one step per run:
//
//	for it := s.Runs(r, pagemem.Remote); it.Next(); {
//		run := it.Run
//		...
//	}
//
// The walk reads the run list as it goes, so its body must not change page
// states.
type RunIter struct {
	// Run is the current run, valid after Next returns true.
	Run Range
	it  stretchIter
}

// Runs returns a walk over the runs of page state st that overlap r.
func (s *Space) Runs(r Range, st State) RunIter {
	return RunIter{it: s.stretches(r, st)}
}

// Next advances to the next run and reports whether there is one.
func (it *RunIter) Next() bool {
	if _, _, ok := it.it.next(); !ok {
		return false
	}
	s, i := it.it.s, it.it.cur
	it.Run = Range{Start: s.runs[i].start, End: s.runEnd(i)}
	return true
}

// CountInRange tallies the pages of r in state st (a page state or Local)
// over the runs r overlaps.
func (s *Space) CountInRange(r Range, st State) int {
	n := 0
	for it := s.stretches(r, st); ; {
		x, _, ok := it.next()
		if !ok {
			return n
		}
		n += x.Len()
	}
}

// CountState returns the number of pages in a state across the space.
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
