// Package mglru reimplements the slice of Multi-Generational LRU semantics
// that FaaSMem builds on (paper §7): pages are grouped into generations by
// allocation epoch, a *time barrier* is the creation of a new generation,
// accessed pages are promoted to the youngest generation, and rolling back
// hot pages corresponds to demoting them to an older generation.
//
// The kernel implementation stamps pages in bulk when a barrier seals a
// generation; this package matches that cost profile by representing
// generations as contiguous *runs* of page IDs plus a small exception set.
// Pages allocated between two barriers are contiguous by construction, so
// AssignNew/InsertBarrier extend or append a run in O(1) amortized
// time instead of stamping every page. Only pages that were individually promoted
// or demoted (the access/rollback paths) leave their run, and those are
// recorded in per-generation exception bitsets. The retired per-page
// implementation survives as the test-only Reference (reference_test.go)
// and anchors the differential tests.
package mglru

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// GenID identifies a generation. Older generations have smaller IDs.
type GenID int32

// NoGen is GenOf's answer for a page that has not been assigned to any
// generation: one beyond the tracked prefix.
const NoGen GenID = -1

// genRun is a maximal range of pages sharing a base generation. Its end is
// implicit: the next run's start, or the tracked-page high-water mark for the
// final run.
type genRun struct {
	start pagemem.PageID
	gen   GenID
}

// LRU tracks the generation of every page in one address space.
//
// A page's current generation is its base run's generation unless an
// exception bitset says otherwise: Promote/Demote move a page by flipping
// exception bits rather than restamping runs, and a page whose current
// generation returns to its base drops out of the exception set entirely.
type LRU struct {
	space *pagemem.Space
	runs  []genRun // base generation runs, sorted by start, covering [0, tracked)
	count []int    // pages per generation
	// exc[g] marks pages whose current generation g differs from their base
	// run's generation; nil until generation g first receives an exception.
	exc []*pagemem.Bitset
	// excAny is the union of all exc bitsets: one probe decides whether a
	// page's generation is just its base run's.
	excAny pagemem.Bitset
	// tracked is the number of space pages already covered by runs.
	tracked int
	// lastRun caches the most recently resolved run index; touch spans walk
	// pages sequentially, so the cache hits almost always.
	lastRun int
	// promotions and demotions count cross-generation page moves — the
	// MGLRU churn the telemetry layer surfaces.
	promotions uint64
	demotions  uint64
}

// New creates an LRU over space with a single initial generation (ID 0).
func New(space *pagemem.Space) *LRU {
	return &LRU{space: space, count: make([]int, 1), exc: make([]*pagemem.Bitset, 1)}
}

// Space returns the underlying address space.
func (l *LRU) Space() *pagemem.Space { return l.space }

// Youngest returns the ID of the youngest (most recent) generation.
func (l *LRU) Youngest() GenID { return GenID(len(l.count) - 1) }

// NumGenerations returns how many generations exist.
func (l *LRU) NumGenerations() int { return len(l.count) }

// GenPages returns the number of pages currently stamped with generation g.
func (l *LRU) GenPages(g GenID) int {
	if g < 0 || int(g) >= len(l.count) {
		return 0
	}
	return l.count[g]
}

// AssignNew stamps every not-yet-tracked page of the space (pages allocated
// since the last call) with the youngest generation and returns the covered
// range. Pages allocated between barriers therefore share a generation,
// exactly as faulted-in pages join the kernel's youngest generation. The
// stamp is one run append (or extension) — O(1) regardless of page count.
func (l *LRU) AssignNew() pagemem.Range {
	start := pagemem.PageID(l.tracked)
	end := pagemem.PageID(l.space.NumPages())
	if end > start {
		young := l.Youngest()
		l.appendRun(start, young)
		l.count[young] += int(end - start)
		l.tracked = int(end)
	}
	return pagemem.Range{Start: start, End: end}
}

// appendRun extends coverage to a new run starting at start. If the previous
// run has the same generation the new pages merge into it for free, since
// run ends are implicit.
func (l *LRU) appendRun(start pagemem.PageID, g GenID) {
	if n := len(l.runs); n > 0 && l.runs[n-1].gen == g {
		return
	}
	l.runs = append(l.runs, genRun{start: start, gen: g})
}

// InsertBarrier closes the current youngest generation and opens a new one,
// first stamping any untracked pages into the closing generation. It returns
// the ID of the generation that was sealed (the new Pucket) and the range of
// pages stamped by this call. Unlike the per-page reference, the barrier is
// O(1): it never walks the pages it seals.
func (l *LRU) InsertBarrier() (sealed GenID, stamped pagemem.Range) {
	stamped = l.AssignNew()
	sealed = l.Youngest()
	l.count = append(l.count, 0)
	l.exc = append(l.exc, nil)
	return sealed, stamped
}

// GenOf returns the generation of page id, or NoGen if the page is beyond
// the tracked prefix.
func (l *LRU) GenOf(id pagemem.PageID) GenID {
	if int(id) >= l.tracked {
		return NoGen
	}
	return l.genOf(id)
}

// genOf resolves a tracked page's current generation: exception bits first
// (youngest generation first, since promotions dominate), then the base run.
func (l *LRU) genOf(id pagemem.PageID) GenID {
	if l.excAny.Get(int(id)) {
		for g := len(l.exc) - 1; g >= 0; g-- {
			if b := l.exc[g]; b != nil && b.Get(int(id)) {
				return GenID(g)
			}
		}
	}
	return l.baseGen(id)
}

// baseGen returns the generation of the run containing id (id must be
// tracked).
func (l *LRU) baseGen(id pagemem.PageID) GenID {
	return l.runs[l.runIndex(id)].gen
}

// runIndex resolves the index of the run containing id (id must be tracked),
// serving from the sequential-walk cache when possible.
func (l *LRU) runIndex(id pagemem.PageID) int {
	if i := l.lastRun; i < len(l.runs) && l.runs[i].start <= id &&
		(i+1 == len(l.runs) || id < l.runs[i+1].start) {
		return i
	}
	i := sort.Search(len(l.runs), func(j int) bool { return l.runs[j].start > id }) - 1
	l.lastRun = i
	return i
}

// runEnd returns the exclusive end of run ri.
func (l *LRU) runEnd(ri int) pagemem.PageID {
	if ri+1 < len(l.runs) {
		return l.runs[ri+1].start
	}
	return pagemem.PageID(l.tracked)
}

// Promote moves page id to the youngest generation (the access path). It is
// a no-op for untracked pages.
func (l *LRU) Promote(id pagemem.PageID) {
	l.moveTo(id, l.Youngest())
}

// PromoteMasked promotes to the youngest generation every page in the
// 64-page word starting at base whose mask bit is set. base must be
// 64-aligned. It is semantically identical to calling Promote for each set
// bit in ascending order — the fast path behind bulk span touches.
func (l *LRU) PromoteMasked(base pagemem.PageID, mask uint64) {
	l.moveMasked(base, mask, l.Youngest())
}

// Demote returns page id to generation g — the rollback path of FaaSMem's
// periodic re-evaluation (paper §5.3). Demoting to a nonexistent generation
// panics, as that indicates Pucket bookkeeping has been corrupted.
func (l *LRU) Demote(id pagemem.PageID, g GenID) {
	l.checkGen(g)
	l.moveTo(id, g)
}

// DemoteMasked returns to generation g every page in the 64-page word
// starting at base whose mask bit is set — the mirror of PromoteMasked and
// semantically identical to calling Demote for each set bit in ascending
// order. base must be 64-aligned.
func (l *LRU) DemoteMasked(base pagemem.PageID, mask uint64, g GenID) {
	if mask == 0 {
		return
	}
	l.checkGen(g)
	l.moveMasked(base, mask, g)
}

// checkGen panics unless g is an existing generation.
func (l *LRU) checkGen(g GenID) {
	if g < 0 || int(g) >= len(l.count) {
		panic(fmt.Sprintf("mglru: demote to invalid generation %d", g))
	}
}

// moveMasked is moveTo for every masked page of the 64-aligned word at base,
// with word operations: a base run's plain pages move by one popcount, and
// its exception pages move per exception generation, so the cost is
// O(runs + generations) per word rather than O(pages).
func (l *LRU) moveMasked(base pagemem.PageID, mask uint64, g GenID) {
	if mask == 0 || int(base) >= l.tracked {
		return
	}
	if rem := l.tracked - int(base); rem < 64 {
		mask &= ^uint64(0) >> (64 - uint(rem))
	}
	w := int(base) / 64
	excAll := l.excAny.WordAt(w)
	for mask != 0 {
		ri := l.runIndex(base + pagemem.PageID(bits.TrailingZeros64(mask)))
		span := mask
		if end := l.runEnd(ri); int(end) < int(base)+64 {
			span &= 1<<uint(int(end)-int(base)) - 1
		}
		mask &^= span
		rg := l.runs[ri].gen
		excw := excAll & span
		if plain := span &^ excw; plain != 0 && rg != g {
			l.shift(rg, g, bits.OnesCount64(plain))
			l.excBits(g).OrWordAt(w, plain)
			l.excAny.OrWordAt(w, plain)
		}
		for eg := 0; excw != 0 && eg < len(l.exc); eg++ {
			b := l.exc[eg]
			if b == nil {
				continue
			}
			m := b.WordAt(w) & excw
			excw &^= m
			if m == 0 || GenID(eg) == g {
				continue
			}
			l.shift(GenID(eg), g, bits.OnesCount64(m))
			b.ClearWordAt(w, m)
			if g == rg {
				l.excAny.ClearWordAt(w, m)
			} else {
				l.excBits(g).OrWordAt(w, m)
			}
		}
	}
}

// shift moves k pages' worth of generation counts from old to g and tallies
// them as promotions or demotions.
func (l *LRU) shift(old, g GenID, k int) {
	l.count[old] -= k
	l.count[g] += k
	if g > old {
		l.promotions += uint64(k)
	} else {
		l.demotions += uint64(k)
	}
}

// excBits returns generation g's exception bitset, creating it on first use
// with room for every tracked page, and sized excAny likewise, so exception
// bits are set without growing word by word.
func (l *LRU) excBits(g GenID) *pagemem.Bitset {
	if l.exc[g] == nil {
		b := &pagemem.Bitset{}
		b.Reserve(l.tracked)
		l.exc[g] = b
		l.excAny.Reserve(l.tracked)
	}
	return l.exc[g]
}

func (l *LRU) moveTo(id pagemem.PageID, g GenID) {
	if int(id) >= l.tracked {
		return
	}
	old := l.genOf(id)
	if old == g {
		return
	}
	l.shift(old, g, 1)
	base := l.baseGen(id)
	if old != base {
		l.exc[old].Clear(int(id))
	}
	if g != base {
		l.excBits(g).Set(int(id))
		l.excAny.Set(int(id))
	} else {
		// Back to its base run: no exception needed anymore.
		l.excAny.Clear(int(id))
	}
}

// Promotions counts pages ever moved to a younger generation.
func (l *LRU) Promotions() uint64 { return l.promotions }

// Demotions counts pages ever moved back to an older generation (rollbacks).
func (l *LRU) Demotions() uint64 { return l.demotions }

// WalkGen calls fn for every tracked page currently in generation g, in page
// order. Runs of other generations contribute only their exception bits, so
// the walk skips foreign runs word-at-a-time.
func (l *LRU) WalkGen(g GenID, fn func(pagemem.PageID)) {
	for ri := range l.runs {
		start, end := l.runs[ri].start, l.runEnd(ri)
		if l.runs[ri].gen == g {
			// Every page of this run except the ones promoted/demoted away.
			for id := start; id < end; id++ {
				if !l.excAny.Get(int(id)) {
					fn(id)
				}
			}
		} else if g >= 0 && int(g) < len(l.exc) && l.exc[g] != nil {
			l.exc[g].ForEachSet(int(start), int(end), func(i int) { fn(pagemem.PageID(i)) })
		}
	}
}
