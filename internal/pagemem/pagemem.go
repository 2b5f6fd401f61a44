// Package pagemem models a container's memory at page granularity.
//
// A Space is a growable array of fixed-size pages. Each page carries the
// state the offloading policies act on (inactive / hot / remote), the
// lifecycle segment it was allocated in (runtime / init / exec), and an
// access bit, mirroring the page-table Accessed bit that the paper's
// mechanisms (and DAMON/TMO) sample.
//
// Every mechanism acts on page ranges — a Pucket's sealed range, a DAMON
// region, a request span, a semi-warm drain — so page state is kept as
// runs: one sorted list of maximal page ranges that share a state. A range
// operation costs a binary search plus the runs it overlaps, however many
// pages those hold, and per-state totals make "how much local memory does
// this container hold" O(1). Access bits, which DAMON samples and clears
// one page at a time, stay a bitset. Offload victims are Selections,
// (range, state) pairs: Prefix counts one up to a page budget and MoveRange
// moves it.
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

// Space is a page-granularity address space for one container. Construct
// it with NewSpace; the zero value is usable only as a CopyStates
// destination.
//
// Page state lives only in runs: runs[i] gives the state of pages
// [runs[i].start, runs[i+1].start), the last run ending at the page count.
// The list is canonical — starts strictly ascend from 0, and no two
// adjacent runs share a state — so a page's state is one binary search and
// every bulk move (offload, recall, rollback) rewrites only the runs it
// overlaps. A page's segment lives only in segRuns.
type Space struct {
	pageSize int
	// n is the number of page slots ever allocated.
	n        int
	accessed Bitset
	runs     []stateRun
	// spare is MoveRange's scratch for the runs it rewrites.
	spare []stateRun
	// total[st] is the number of pages in state st.
	total [numStates]int
	// segRuns records the contiguous allocation runs sharing a segment
	// (segments are piecewise constant by construction).
	segRuns []segRun
}

// stateRun is a maximal range of pages in one state; its end is the next
// run's start (or the allocated page count for the final run).
type stateRun struct {
	start PageID
	st    State
}

// segRun is a maximal range of pages allocated to one segment; its end is
// the next run's start (or the allocated page count for the final run).
type segRun struct {
	start int
	seg   Segment
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
// access-bit allocation plus room for one state and one segment run per
// segment, so Alloc calls up to that total allocate nothing while each
// segment is allocated in one run. It changes no page: a container whose
// segment sizes are known at launch reserves their sum once instead of
// growing per segment.
func (s *Space) Reserve(pages int) {
	s.segRuns = slices.Grow(s.segRuns, NumSegments)
	s.runs = slices.Grow(s.runs, NumSegments)
	s.accessed.Reserve(pages)
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

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
	if n > 0 {
		if k := len(s.segRuns); k == 0 || s.segRuns[k-1].seg != seg {
			s.segRuns = append(s.segRuns, segRun{start: start, seg: seg})
		}
		s.runs = pushRun(s.runs, PageID(start), Inactive)
	}
	s.n = total
	s.accessed.SetRange(start, total)
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

// CopyStates makes s's page states a copy of src's — page size, page
// count, runs and totals — for a what-if walk that must leave src alone.
// Access bits and segments are not copied. It reuses s's run storage, so a
// scratch Space copied into per request stops allocating once it has held
// the largest run list.
func (s *Space) CopyStates(src *Space) {
	s.pageSize, s.n, s.total = src.pageSize, src.n, src.total
	s.runs = append(s.runs[:0], src.runs...)
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

// Local and Idle are not page states but selectors. Passed to Prefix,
// MoveRange, ClearAccessedRange or a Selection, Local selects every locally
// resident page (Inactive or Hot), and Idle the local pages whose access
// bit is clear (TMO's victims).
const (
	Local State = numStates + iota
	Idle
)

// selects reports whether selector sel (a page state, Local or Idle) takes
// pages in state st; Idle also needs the page's access bit clear.
func selects(sel, st State) bool {
	return sel == st || st != Remote && (sel == Local || sel == Idle)
}

// Selection selects the pages of R in state St (a page state, Local or
// Idle), in page order: how a policy names its offload victims.
type Selection struct {
	R  Range
	St State
}

// stretchIter walks, in page order, the maximal stretches of a range's
// pages that a selector takes: the selected runs clipped to the range, with
// an Idle walk splitting its Local runs at accessed pages.
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
		a, e := max(it.p, s.runs[it.i].start), min(s.runEnd(it.i), it.end)
		b := e
		if it.sel == Idle {
			a = PageID(s.accessed.next(int(a), int(e), false))
			b = PageID(s.accessed.next(int(a), int(e), true))
		}
		if a < b {
			it.p, it.cur = b, it.i
			// An Idle stretch that ends at an accessed page leaves more of
			// its run to walk.
			if b == e {
				it.i++
			}
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

// MoveRange moves every page of r in state from (a page state, Local or
// Idle) to the page state to, keeping the totals, and returns how many
// pages moved. It rewrites the runs r overlaps, plus one neighbour each
// side to coalesce with, in one splice.
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

// ClearAccessedRange clears the access bits of the pages of r in state st
// (a page state, Local or Idle, whose pages' bits are already clear).
func (s *Space) ClearAccessedRange(r Range, st State) {
	if st == Idle {
		return
	}
	for it := s.stretches(r, st); ; {
		x, _, ok := it.next()
		if !ok {
			return
		}
		s.accessed.ClearRange(int(x.Start), int(x.End))
	}
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

// TouchRange sets the access bits of every page in r in bulk — the fast path
// for request spans, which touch contiguous page runs.
func (s *Space) TouchRange(r Range) {
	s.accessed.SetRange(int(r.Start), min(int(r.End), s.n))
}

// Accessed reports the access bit of page id without clearing it.
func (s *Space) Accessed(id PageID) bool { return s.accessed.Get(int(id)) }

// ClearAccessed clears the access bit of page id.
func (s *Space) ClearAccessed(id PageID) { s.accessed.Clear(int(id)) }

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
