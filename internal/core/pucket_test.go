package core

import (
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
)

func newPucketFixture() (*pagemem.Space, Pucket) {
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	return s, Pucket{Seg: s.Alloc(pagemem.SegRuntime, 10)}
}

func TestPucketCounts(t *testing.T) {
	s, p := newPucketFixture()
	if p.InactivePages(s) != 10 || p.HotPages(s) != 0 || p.RemotePages(s) != 0 {
		t.Fatalf("fresh pucket counts = %d/%d/%d",
			p.InactivePages(s), p.HotPages(s), p.RemotePages(s))
	}
	// Promote three pages to the hot pool, offload two.
	for i := pagemem.PageID(0); i < 3; i++ {
		setState(s, p.Seg.Start+i, pagemem.Hot)
	}
	setState(s, p.Seg.Start+5, pagemem.Remote)
	setState(s, p.Seg.Start+6, pagemem.Remote)
	if p.InactivePages(s) != 5 || p.HotPages(s) != 3 || p.RemotePages(s) != 2 {
		t.Fatalf("counts = %d/%d/%d, want 5/3/2",
			p.InactivePages(s), p.HotPages(s), p.RemotePages(s))
	}
}

// TestPucketRollback checks rollback against page state: every Hot page of
// the Pucket becomes Inactive with a clear access bit, Remote and Inactive
// pages (and their access bits) are untouched, and pages outside the Pucket
// keep their state.
func TestPucketRollback(t *testing.T) {
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	s.Alloc(pagemem.SegRuntime, 70)
	// 130 pages so the Pucket spans three words and ends mid-word.
	p := Pucket{Seg: s.Alloc(pagemem.SegInit, 130)}
	s.Alloc(pagemem.SegExec, 20)
	// States cycle Inactive, Hot, Remote; every fourth page's access bit is
	// clear, so both bit values meet every state.
	want := make([]pagemem.State, numPages(s))
	for id := pagemem.PageID(0); int(id) < numPages(s); id++ {
		st := pagemem.State(int(id) % 3)
		setState(s, id, st)
		if id%4 == 0 {
			s.ClearAccessed(id)
		}
		want[id] = st
		if p.Seg.Start <= id && id < p.Seg.End && st == pagemem.Hot {
			want[id] = pagemem.Inactive
		}
	}
	if got := p.Rollback(s); got != 44 {
		t.Fatalf("rollback moved %d pages, want 44", got)
	}
	if p.HotPages(s) != 0 || p.InactivePages(s) != 87 || p.RemotePages(s) != 43 {
		t.Fatalf("after rollback: hot=%d inactive=%d remote=%d",
			p.HotPages(s), p.InactivePages(s), p.RemotePages(s))
	}
	for id := pagemem.PageID(0); int(id) < numPages(s); id++ {
		if got := stateOf(s, id); got != want[id] {
			t.Fatalf("page %d state %v, want %v", id, got, want[id])
		}
		rolled := p.Seg.Start <= id && id < p.Seg.End && pagemem.State(int(id)%3) == pagemem.Hot
		if wantAcc := !rolled && id%4 != 0; s.Accessed(id) != wantAcc {
			t.Fatalf("page %d accessed = %v, want %v", id, s.Accessed(id), wantAcc)
		}
	}
	// Rollback is idempotent.
	if got := p.Rollback(s); got != 0 {
		t.Fatalf("second rollback moved %d pages", got)
	}
}

// numPages returns the number of pages allocated in sp.
func numPages(sp *pagemem.Space) int { return sp.PagesOf(sp.TotalBytes()) }

// stateOf returns page id's state, probed through the range API.
func stateOf(sp *pagemem.Space, id pagemem.PageID) pagemem.State {
	r := pagemem.Range{Start: id, End: id + 1}
	for st := pagemem.Inactive; st < pagemem.Remote; st++ {
		if sp.CountInRange(r, st) == 1 {
			return st
		}
	}
	return pagemem.Remote
}

// setState moves page id to state st, whatever its state was.
func setState(sp *pagemem.Space, id pagemem.PageID, st pagemem.State) {
	r := pagemem.Range{Start: id, End: id + 1}
	sp.MoveRange(r, pagemem.Local, st)
	sp.MoveRange(r, pagemem.Remote, st)
}
