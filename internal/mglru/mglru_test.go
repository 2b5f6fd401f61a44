package mglru

import (
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
)

func newSpaceLRU() (*pagemem.Space, *LRU) {
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	return s, New(s)
}

func TestNewHasSingleGeneration(t *testing.T) {
	_, l := newSpaceLRU()
	if l.NumGenerations() != 1 {
		t.Fatalf("NumGenerations = %d, want 1", l.NumGenerations())
	}
	if l.Youngest() != 0 {
		t.Fatalf("Youngest = %d, want 0", l.Youngest())
	}
}

func TestAssignNewStampsYoungest(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 5)
	r := l.AssignNew()
	if r.Len() != 5 {
		t.Fatalf("AssignNew covered %d pages, want 5", r.Len())
	}
	if l.GenPages(0) != 5 {
		t.Fatalf("gen 0 pages = %d, want 5", l.GenPages(0))
	}
	for id := r.Start; id < r.End; id++ {
		if l.GenOf(id) != 0 {
			t.Fatalf("page %d gen = %d, want 0", id, l.GenOf(id))
		}
	}
	// Second call with no new pages covers nothing.
	if got := l.AssignNew(); got.Len() != 0 {
		t.Fatalf("redundant AssignNew covered %d pages", got.Len())
	}
}

func TestInsertBarrierSealsGeneration(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 10)
	sealed, stamped := l.InsertBarrier()
	if sealed != 0 {
		t.Fatalf("sealed gen = %d, want 0", sealed)
	}
	if stamped.Len() != 10 {
		t.Fatalf("stamped %d pages, want 10", stamped.Len())
	}
	if l.Youngest() != 1 {
		t.Fatalf("youngest after barrier = %d, want 1", l.Youngest())
	}
	// Pages allocated after the barrier land in the new generation.
	s.Alloc(pagemem.SegInit, 4)
	l.AssignNew()
	if l.GenPages(1) != 4 {
		t.Fatalf("gen 1 pages = %d, want 4", l.GenPages(1))
	}
	if l.GenPages(0) != 10 {
		t.Fatalf("gen 0 pages = %d, want 10", l.GenPages(0))
	}
}

func TestTwoBarriersMakeThreePuckets(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 3)
	runtimeGen, _ := l.InsertBarrier()
	s.Alloc(pagemem.SegInit, 5)
	initGen, _ := l.InsertBarrier()
	execRange := s.Alloc(pagemem.SegExec, 2) // never stamped: untracked

	if runtimeGen != 0 || initGen != 1 {
		t.Fatalf("generations = %d,%d, want 0,1", runtimeGen, initGen)
	}
	if l.GenPages(0) != 3 || l.GenPages(1) != 5 {
		t.Fatalf("pucket sizes = %d,%d, want 3,5", l.GenPages(0), l.GenPages(1))
	}
	for id := execRange.Start; id < execRange.End; id++ {
		if l.GenOf(id) != NoGen {
			t.Fatalf("exec page %d is monitored (gen %d)", id, l.GenOf(id))
		}
	}
}

func TestPromoteMovesToYoungest(t *testing.T) {
	s, l := newSpaceLRU()
	r := s.Alloc(pagemem.SegRuntime, 2)
	l.InsertBarrier()
	l.Promote(r.Start)
	if l.GenOf(r.Start) != 1 {
		t.Fatalf("promoted page gen = %d, want 1", l.GenOf(r.Start))
	}
	if l.GenPages(0) != 1 || l.GenPages(1) != 1 {
		t.Fatalf("counts = %d,%d, want 1,1", l.GenPages(0), l.GenPages(1))
	}
	// Promoting again is a no-op.
	l.Promote(r.Start)
	if l.GenPages(1) != 1 {
		t.Fatalf("double promote count = %d, want 1", l.GenPages(1))
	}
}

func TestDemoteRollsBack(t *testing.T) {
	s, l := newSpaceLRU()
	r := s.Alloc(pagemem.SegRuntime, 1)
	l.InsertBarrier()
	l.Promote(r.Start)
	l.Demote(r.Start, 0)
	if l.GenOf(r.Start) != 0 {
		t.Fatalf("demoted page gen = %d, want 0", l.GenOf(r.Start))
	}
	if l.GenPages(0) != 1 || l.GenPages(1) != 0 {
		t.Fatalf("counts after demote = %d,%d", l.GenPages(0), l.GenPages(1))
	}
}

func TestDemoteInvalidGenPanics(t *testing.T) {
	s, l := newSpaceLRU()
	r := s.Alloc(pagemem.SegRuntime, 1)
	l.AssignNew()
	defer func() {
		if recover() == nil {
			t.Error("demote to invalid generation did not panic")
		}
	}()
	l.Demote(r.Start, 99)
}

func TestUnmonitoredPagesStayUnmonitored(t *testing.T) {
	s, l := newSpaceLRU()
	r := s.Alloc(pagemem.SegExec, 3) // never stamped: untracked
	l.Promote(r.Start)
	if l.GenOf(r.Start) != NoGen {
		t.Fatalf("promote changed unmonitored page to gen %d", l.GenOf(r.Start))
	}
	if l.GenPages(l.Youngest()) != 0 {
		t.Fatal("unmonitored promote leaked into generation count")
	}
}

func TestGenOfBeyondTrackedIsNoGen(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 3)
	// Not assigned yet.
	if l.GenOf(0) != NoGen {
		t.Fatalf("untracked page gen = %d, want NoGen", l.GenOf(0))
	}
	l.Promote(2) // must not panic or corrupt counts
	if l.GenPages(0) != 0 {
		t.Fatal("promote of untracked page changed counts")
	}
}

func TestWalkGen(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 4)
	l.InsertBarrier()
	s.Alloc(pagemem.SegInit, 2)
	l.AssignNew()
	var gen0, gen1 int
	l.WalkGen(0, func(pagemem.PageID) { gen0++ })
	l.WalkGen(1, func(pagemem.PageID) { gen1++ })
	if gen0 != 4 || gen1 != 2 {
		t.Fatalf("walk counts = %d,%d, want 4,2", gen0, gen1)
	}
}

func TestGenPagesOutOfRange(t *testing.T) {
	_, l := newSpaceLRU()
	if l.GenPages(-1) != 0 || l.GenPages(5) != 0 {
		t.Fatal("out-of-range GenPages should be 0")
	}
}

// TestCountsConsistentUnderChurn is a property-style test: after many
// promote/demote/barrier operations the per-generation counts match a walk.
func TestCountsConsistentUnderChurn(t *testing.T) {
	s, l := newSpaceLRU()
	s.Alloc(pagemem.SegRuntime, 50)
	l.InsertBarrier()
	s.Alloc(pagemem.SegInit, 50)
	l.InsertBarrier()
	for i := 0; i < 500; i++ {
		id := pagemem.PageID(i % 100)
		switch i % 3 {
		case 0:
			l.Promote(id)
		case 1:
			l.Demote(id, GenID(i%2))
		case 2:
			if i%50 == 2 {
				l.InsertBarrier()
			}
		}
	}
	for g := GenID(0); int(g) < l.NumGenerations(); g++ {
		walked := 0
		l.WalkGen(g, func(pagemem.PageID) { walked++ })
		if walked != l.GenPages(g) {
			t.Fatalf("gen %d: count %d != walk %d", g, l.GenPages(g), walked)
		}
	}
}
