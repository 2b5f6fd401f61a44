package faas

import (
	"math/rand"
	"testing"

	"github.com/faasmem/faasmem/internal/mglru"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/rmem"
)

// The request touch path and the offload path move pages a word at a time.
// The references below are the per-page walks they replace; the tests drive
// both on identical containers and compare every observable result.

// refTouchRange is the sequential per-page touch: every page in [start, end)
// gets its access bit; Inactive pages promote to Hot; a Remote page faults,
// and its fault recalls up to window contiguous Remote successors below
// seg.End as readahead.
func refTouchRange(c *Container, seg pagemem.Range, start, end pagemem.PageID, window int) (faults, readahead int) {
	sp := c.space
	sp.TouchRange(pagemem.Range{Start: start, End: end})
	for id := start; id < end; id++ {
		switch sp.State(id) {
		case pagemem.Remote:
			faults++
			sp.SetState(id, pagemem.Hot)
			c.lru.Promote(id)
			for ra := 0; ra < window; ra++ {
				next := id + 1 + pagemem.PageID(ra)
				if next >= seg.End || sp.State(next) != pagemem.Remote {
					break
				}
				readahead++
				sp.SetState(next, pagemem.Hot)
				c.lru.Promote(next)
			}
		case pagemem.Inactive:
			sp.SetState(id, pagemem.Hot)
			c.lru.Promote(id)
		}
	}
	return faults, readahead
}

// refOffloadCandidates is the per-page candidate filter: the first max
// locally resident pages of ids, counted by class.
func refOffloadCandidates(c *Container, ids []pagemem.PageID, max int) ([]pagemem.PageID, rmem.ClassCounts) {
	var cand []pagemem.PageID
	var counts rmem.ClassCounts
	for _, id := range ids {
		if len(cand) >= max {
			break
		}
		st := c.space.State(id)
		if st != pagemem.Inactive && st != pagemem.Hot {
			continue
		}
		cand = append(cand, id)
		counts[c.classOf(id)]++
	}
	return cand, counts
}

// refOffloadAccepted is the per-page move: the first accepted[cls]
// candidates of each class go Remote, in cand order.
func refOffloadAccepted(c *Container, cand []pagemem.PageID, accepted rmem.ClassCounts) []pagemem.PageID {
	var moved []pagemem.PageID
	for _, id := range cand {
		cls := c.classOf(id)
		if accepted[cls] == 0 {
			continue
		}
		accepted[cls]--
		c.space.SetState(id, pagemem.Remote)
		moved = append(moved, id)
	}
	return moved
}

// walkContainer builds a container with runtime, init and exec segments of
// sizes that make words straddle segment boundaries, then scatters runs of
// Inactive, Hot and Remote pages over the monitored segments. The same seed
// builds the same container.
func walkContainer(seed int64) *Container {
	sp := pagemem.NewSpace(pagemem.DefaultPageSize)
	c := &Container{space: sp, lru: mglru.New(sp)}
	sp.Alloc(pagemem.SegRuntime, 300)
	c.runtimeGen, c.runtimeRange = c.lru.InsertBarrier()
	sp.Alloc(pagemem.SegInit, 221)
	c.initGen, c.initRange = c.lru.InsertBarrier()
	sp.Alloc(pagemem.SegExec, 97)
	c.execRange = c.lru.SkipNew()
	rng := rand.New(rand.NewSource(seed))
	for _, r := range []pagemem.Range{c.runtimeRange, c.initRange} {
		for id := r.Start; id < r.End; {
			n := pagemem.PageID(1 + rng.Intn(160))
			st := pagemem.State(1 + rng.Intn(3))
			for end := min(id+n, r.End); id < end; id++ {
				sp.SetState(id, st)
				if st == pagemem.Hot {
					c.lru.Promote(id)
				}
			}
		}
	}
	return c
}

// sameContainer fails unless the two containers' pages agree in state,
// segment counts, access bits and generations.
func sameContainer(t *testing.T, label string, got, want *Container) {
	t.Helper()
	for seg := pagemem.Segment(0); seg < pagemem.NumSegments; seg++ {
		for st := pagemem.Free; st <= pagemem.Remote; st++ {
			if g, w := got.space.Count(seg, st), want.space.Count(seg, st); g != w {
				t.Fatalf("%s: Count(%v, %v) = %d, want %d", label, seg, st, g, w)
			}
		}
	}
	for id := pagemem.PageID(0); int(id) < want.space.NumPages(); id++ {
		if g, w := got.space.State(id), want.space.State(id); g != w {
			t.Fatalf("%s: page %d state %v, want %v", label, id, g, w)
		}
		if g, w := got.space.Accessed(id), want.space.Accessed(id); g != w {
			t.Fatalf("%s: page %d accessed %v, want %v", label, id, g, w)
		}
		if g, w := got.lru.GenOf(id), want.lru.GenOf(id); g != w {
			t.Fatalf("%s: page %d generation %d, want %d", label, id, g, w)
		}
	}
	if g, w := got.lru.Promotions(), want.lru.Promotions(); g != w {
		t.Fatalf("%s: promotions %d, want %d", label, g, w)
	}
}

// TestTouchRangeMatchesSequentialWalk drives random spans through the word
// walk and the per-page reference with readahead windows that stay in the
// word (1, 8), spill across one word boundary (8), or across several (70),
// and clip at the segment end.
func TestTouchRangeMatchesSequentialWalk(t *testing.T) {
	for _, window := range []int{0, 1, 8, 70} {
		for seed := int64(1); seed <= 20; seed++ {
			fast, slow := walkContainer(seed), walkContainer(seed)
			rng := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < 12; i++ {
				seg := fast.runtimeRange
				if rng.Intn(2) == 0 {
					seg = fast.initRange
				}
				start := seg.Start + pagemem.PageID(rng.Intn(seg.Len()))
				end := start + pagemem.PageID(1+rng.Intn(int(seg.End-start)))
				f1, ra1 := fast.touchRange(seg, start, end, window)
				f2, ra2 := refTouchRange(slow, seg, start, end, window)
				if f1 != f2 || ra1 != ra2 {
					t.Fatalf("window %d seed %d touch [%d,%d): faults/readahead %d/%d, want %d/%d",
						window, seed, start, end, f1, ra1, f2, ra2)
				}
				sameContainer(t, "touch", fast, slow)
				// Push some pages back out so later spans fault again.
				for id := seg.Start; id < seg.End; id++ {
					if rng.Intn(3) == 0 && fast.space.State(id) != pagemem.Remote {
						fast.space.SetState(id, pagemem.Remote)
						slow.space.SetState(id, pagemem.Remote)
					}
				}
			}
		}
	}
}

// TestOffloadMatchesPerPageMove drives victim lists shaped like the
// semi-warm offloader's — Inactive then Hot pages, runtime then init, so ids
// go back to earlier words — plus shuffled lists with stale (already
// Remote) entries, through the word-batched candidate filter and move and
// the per-page reference, with pool admission trimming random classes.
func TestOffloadMatchesPerPageMove(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		fast, slow := walkContainer(seed), walkContainer(seed)
		rng := rand.New(rand.NewSource(seed * 17))
		var ids []pagemem.PageID
		if seed%2 == 0 {
			for _, st := range []pagemem.State{pagemem.Inactive, pagemem.Hot} {
				for _, r := range []pagemem.Range{fast.runtimeRange, fast.initRange} {
					ids = fast.space.CollectInState(ids, r, st, 0)
				}
			}
		} else {
			for id := pagemem.PageID(0); int(id) < fast.space.NumPages(); id++ {
				if rng.Intn(2) == 0 {
					ids = append(ids, id)
				}
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		max := 1 + rng.Intn(len(ids)+1)
		cand, counts := fast.offloadCandidates(ids, max)
		wantCand, wantCounts := refOffloadCandidates(slow, ids, max)
		if len(cand) != len(wantCand) || counts != wantCounts {
			t.Fatalf("seed %d: %d candidates %v, want %d %v", seed, len(cand), counts, len(wantCand), wantCounts)
		}
		for i := range cand {
			if cand[i] != wantCand[i] {
				t.Fatalf("seed %d: candidate %d = %d, want %d", seed, i, cand[i], wantCand[i])
			}
		}
		accepted := counts
		for cls := range accepted {
			accepted[cls] = rng.Intn(accepted[cls] + 1)
		}
		moved := fast.offloadAccepted(cand, accepted)
		wantMoved := refOffloadAccepted(slow, wantCand, accepted)
		if moved != len(wantMoved) {
			t.Fatalf("seed %d: moved %d pages, want %d", seed, moved, len(wantMoved))
		}
		for _, id := range wantMoved {
			if st := fast.space.State(id); st != pagemem.Remote {
				t.Fatalf("seed %d: reference-moved page %d is %v", seed, id, st)
			}
		}
		sameContainer(t, "offload", fast, slow)
	}
}
