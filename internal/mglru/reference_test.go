package mglru

import (
	"fmt"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// Reference is the retired per-page generation tracker: a flat gen slice
// stamped one page at a time. It is semantically identical to LRU and kept
// as the oracle for the differential tests (they and the fuzz harness replay
// the same operation sequences through both and compare). It lives in a
// test file, so production code cannot construct it.
type Reference struct {
	space      *pagemem.Space
	gen        []GenID // per-page generation, aligned with space page IDs
	count      []int   // pages per generation
	tracked    int
	promotions uint64
	demotions  uint64
}

// NewReference creates a per-page tracker over space with a single initial
// generation (ID 0).
func NewReference(space *pagemem.Space) *Reference {
	return &Reference{space: space, count: make([]int, 1)}
}

// Space returns the underlying address space.
func (l *Reference) Space() *pagemem.Space { return l.space }

// Youngest returns the ID of the youngest (most recent) generation.
func (l *Reference) Youngest() GenID { return GenID(len(l.count) - 1) }

// NumGenerations returns how many generations exist.
func (l *Reference) NumGenerations() int { return len(l.count) }

// GenPages returns the number of pages currently stamped with generation g.
func (l *Reference) GenPages(g GenID) int {
	if g < 0 || int(g) >= len(l.count) {
		return 0
	}
	return l.count[g]
}

// AssignNew stamps every not-yet-tracked page with the youngest generation,
// one page at a time. The gen slice is grown to the space size in one
// allocation before the stamp loop rather than per-page appends.
func (l *Reference) AssignNew() pagemem.Range {
	start := pagemem.PageID(l.tracked)
	end := pagemem.PageID(l.space.NumPages())
	l.growGen(int(end))
	young := l.Youngest()
	for id := start; id < end; id++ {
		l.gen = append(l.gen, young)
		l.count[young]++
	}
	l.tracked = int(end)
	return pagemem.Range{Start: start, End: end}
}

// growGen reserves capacity for n tracked pages so the stamp loop above
// never reallocates mid-walk.
func (l *Reference) growGen(n int) {
	if cap(l.gen) >= n {
		return
	}
	grown := make([]GenID, len(l.gen), n)
	copy(grown, l.gen)
	l.gen = grown
}

// InsertBarrier closes the current youngest generation and opens a new one,
// first stamping any untracked pages into the closing generation.
func (l *Reference) InsertBarrier() (sealed GenID, stamped pagemem.Range) {
	stamped = l.AssignNew()
	sealed = l.Youngest()
	l.count = append(l.count, 0)
	return sealed, stamped
}

// GenOf returns the generation of page id, or NoGen if untracked.
func (l *Reference) GenOf(id pagemem.PageID) GenID {
	if int(id) >= len(l.gen) {
		return NoGen
	}
	return l.gen[id]
}

// Promote moves page id to the youngest generation.
func (l *Reference) Promote(id pagemem.PageID) {
	l.moveTo(id, l.Youngest())
}

// Demote returns page id to generation g.
func (l *Reference) Demote(id pagemem.PageID, g GenID) {
	if g < 0 || int(g) >= len(l.count) {
		panic(fmt.Sprintf("mglru: demote to invalid generation %d", g))
	}
	l.moveTo(id, g)
}

func (l *Reference) moveTo(id pagemem.PageID, g GenID) {
	if int(id) >= len(l.gen) {
		return
	}
	old := l.gen[id]
	if old == g {
		return
	}
	l.gen[id] = g
	l.count[old]--
	l.count[g]++
	if g > old {
		l.promotions++
	} else {
		l.demotions++
	}
}

// Promotions counts pages ever moved to a younger generation.
func (l *Reference) Promotions() uint64 { return l.promotions }

// Demotions counts pages ever moved back to an older generation.
func (l *Reference) Demotions() uint64 { return l.demotions }

// WalkGen calls fn for every tracked page currently in generation g.
func (l *Reference) WalkGen(g GenID, fn func(pagemem.PageID)) {
	for id, pg := range l.gen {
		if pg == g {
			fn(pagemem.PageID(id))
		}
	}
}
