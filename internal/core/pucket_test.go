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
		s.SetState(p.Seg.Start+i, pagemem.Hot)
	}
	s.SetState(p.Seg.Start+5, pagemem.Remote)
	s.SetState(p.Seg.Start+6, pagemem.Remote)
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
	want := make([]pagemem.State, s.NumPages())
	for id := pagemem.PageID(0); int(id) < s.NumPages(); id++ {
		st := pagemem.State(int(id) % 3)
		s.SetState(id, st)
		if id%4 == 0 {
			s.ClearAccessed(id)
		}
		want[id] = st
		if p.Seg.Contains(id) && st == pagemem.Hot {
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
	for id := pagemem.PageID(0); int(id) < s.NumPages(); id++ {
		if got := s.State(id); got != want[id] {
			t.Fatalf("page %d state %v, want %v", id, got, want[id])
		}
		rolled := p.Seg.Contains(id) && pagemem.State(int(id)%3) == pagemem.Hot
		if wantAcc := !rolled && id%4 != 0; s.Accessed(id) != wantAcc {
			t.Fatalf("page %d accessed = %v, want %v", id, s.Accessed(id), wantAcc)
		}
	}
	// Rollback is idempotent.
	if got := p.Rollback(s); got != 0 {
		t.Fatalf("second rollback moved %d pages", got)
	}
}
