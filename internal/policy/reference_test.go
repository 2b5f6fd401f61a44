package policy

// Per-page references for the baselines' victim selections: DAMON's
// pageout of cold regions and TMO's idle-page step are replayed page by page
// on an identical container and must pick the same victims in the same
// order and leave the same access bits.

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
)

// CollectPages is the per-page victim scan Prefix replaces: up to max pages
// of r in state st (pagemem.Local: Inactive or Hot), in page order; max <= 0
// means no limit.
func CollectPages(s *pagemem.Space, r pagemem.Range, st pagemem.State, max int) []pagemem.PageID {
	var out []pagemem.PageID
	for id := r.Start; id < r.End; id++ {
		cur := s.State(id)
		if cur == st || st == pagemem.Local && (cur == pagemem.Inactive || cur == pagemem.Hot) {
			out = append(out, id)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

// refTMOVictims is TMO's per-page step: local pages of each range in order,
// an accessed one loses its bit, an idle one is a victim, until budget
// victims are found.
func refTMOVictims(s *pagemem.Space, ranges []pagemem.Range, budget int) []pagemem.PageID {
	var victims []pagemem.PageID
	for _, r := range ranges {
		for _, id := range CollectPages(s, r, pagemem.Local, 0) {
			if s.Accessed(id) {
				s.ClearAccessed(id)
				continue
			}
			victims = append(victims, id)
			if len(victims) >= budget {
				return victims
			}
		}
	}
	return victims
}

// scatteredView is a fakeView whose runtime and init pages carry random
// runs of states and random access bits; the same seed builds the same view.
func scatteredView(seed int64) *fakeView {
	v := newFakeView(300, 221)
	rng := rand.New(rand.NewSource(seed))
	for id := pagemem.PageID(0); int(id) < v.space.NumPages(); {
		st := pagemem.State(rng.Intn(3))
		for end := min(id+pagemem.PageID(1+rng.Intn(100)), pagemem.PageID(v.space.NumPages())); id < end; id++ {
			v.space.SetState(id, st)
			if rng.Intn(3) == 0 {
				v.space.ClearAccessed(id)
			}
		}
	}
	return v
}

// sameAccessBits fails unless both spaces agree on every access bit.
func sameAccessBits(t *testing.T, label string, got, want *pagemem.Space) {
	t.Helper()
	for id := pagemem.PageID(0); int(id) < want.NumPages(); id++ {
		if got.Accessed(id) != want.Accessed(id) {
			t.Fatalf("%s: page %d accessed %v, want %v", label, id, got.Accessed(id), want.Accessed(id))
		}
	}
}

// TestTMOStepMatchesPerPageWalk runs one TMO step at budgets that end
// inside the runtime range, inside the init range, or never, against the
// per-page walk.
func TestTMOStepMatchesPerPageWalk(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		fast, slow := scatteredView(seed), scatteredView(seed)
		frac := []float64{0.01, 0.2, 0.45, 2}[seed%4]
		c := &tmoContainer{cfg: TMOConfig{StepFraction: frac}.withDefaults(), view: fast}
		c.step(simtime.NewEngine())
		s := slow.space
		budget := int(int64(float64(s.TotalBytes())*frac) / int64(s.PageSize()))
		want := refTMOVictims(s, []pagemem.Range{slow.runtimeRange, slow.initRange}, budget)
		if len(want) == 0 || !slices.Equal(fast.offloaded, want) {
			t.Fatalf("seed %d budget %d: victims %v, want %v", seed, budget, fast.offloaded, want)
		}
		sameAccessBits(t, "tmo step", fast.space, s)
	}
}

// TestDamonPageoutMatchesPerPageWalk ages random regions to cold and checks
// that one aggregation offloads exactly their local pages, region by region.
func TestDamonPageoutMatchesPerPageWalk(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		fast, slow := scatteredView(seed), scatteredView(seed)
		d := newTestDamon(fast)
		d.cfg.MinRegions = 37 // 14-page regions: edges fall inside words
		d.resetRegions()
		rng := rand.New(rand.NewSource(seed))
		var want []pagemem.PageID
		for i := range d.regions {
			r := &d.regions[i]
			if rng.Intn(2) == 0 {
				r.age = d.cfg.AggregationsCold - 1
				want = append(want, CollectPages(slow.space, pagemem.Range{Start: r.start, End: r.end}, pagemem.Local, 0)...)
			} else {
				r.nrAccesses = 1
			}
		}
		d.aggregate(simtime.NewEngine())
		if len(want) == 0 || !slices.Equal(fast.offloaded, want) {
			t.Fatalf("seed %d: pageout %v, want %v", seed, fast.offloaded, want)
		}
	}
}
