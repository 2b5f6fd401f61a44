package policy

// White-box tests for the region-based DAMON internals (two-phase sampling,
// aging, merge/split adaptation). The black-box behaviour is covered by
// policy_test.go through the full platform.

import (
	"math/rand"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/workload"
)

// fakeView is a minimal policy.View for driving DAMON without a platform.
type fakeView struct {
	space        *pagemem.Space
	runtimeRange pagemem.Range
	initRange    pagemem.Range
	offloaded    []pagemem.PageID
}

func newFakeView(runtimePages, initPages int) *fakeView {
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	v := &fakeView{space: s}
	v.runtimeRange = s.Alloc(pagemem.SegRuntime, runtimePages)
	v.initRange = s.Alloc(pagemem.SegInit, initPages)
	return v
}

func (v *fakeView) ID() string                  { return "fake#1" }
func (v *fakeView) FunctionID() string          { return "fake" }
func (v *fakeView) Profile() *workload.Profile  { return nil }
func (v *fakeView) Space() *pagemem.Space       { return v.space }
func (v *fakeView) RuntimeRange() pagemem.Range { return v.runtimeRange }
func (v *fakeView) InitRange() pagemem.Range    { return v.initRange }
func (v *fakeView) RequestsServed() int         { return 1 }
func (v *fakeView) Idle() bool                  { return true }
func (v *fakeView) StallFraction() float64      { return 0 }
func (v *fakeView) OffloadScale() float64       { return 1 }
func (v *fakeView) MemoryBytes() int64          { return v.space.TotalBytes() }
func (v *fakeView) Telemetry() *telemetry.Hub   { return &telemetry.Hub{} }

// OffloadPages moves the selected local pages to Remote one page at a time,
// in (selection, page) order, up to max of them.
func (v *fakeView) OffloadPages(e *simtime.Engine, sels []pagemem.Selection, max int) int {
	n := 0
	for _, sel := range sels {
		for id := sel.R.Start; id < sel.R.End; id++ {
			if max > 0 && n == max {
				return n
			}
			st := stateOf(v.space, id)
			if st == pagemem.Remote || sel.St == pagemem.Idle && v.space.Accessed(id) ||
				sel.St != pagemem.Local && sel.St != pagemem.Idle && st != sel.St {
				continue
			}
			setState(v.space, id, pagemem.Remote)
			v.offloaded = append(v.offloaded, id)
			n++
		}
	}
	return n
}

var _ View = (*fakeView)(nil)

func newTestDamon(v View) *damonContainer {
	return &damonContainer{
		cfg:  DAMONConfig{}.withDefaults(),
		view: v,
		rng:  rand.New(rand.NewSource(1)),
	}
}

func TestDamonResetRegionsCoversMonitoredRanges(t *testing.T) {
	v := newFakeView(40, 60)
	d := newTestDamon(v)
	d.resetRegions()
	if len(d.regions) < d.cfg.MinRegions {
		t.Fatalf("regions = %d, want >= %d", len(d.regions), d.cfg.MinRegions)
	}
	covered := 0
	for _, r := range d.regions {
		covered += r.len()
		// Regions must not straddle outside the monitored ranges.
		inRuntime := r.start >= v.runtimeRange.Start && r.end <= v.runtimeRange.End
		inInit := r.start >= v.initRange.Start && r.end <= v.initRange.End
		if !inRuntime && !inInit {
			t.Fatalf("region [%d,%d) outside monitored ranges", r.start, r.end)
		}
	}
	if covered != 100 {
		t.Fatalf("regions cover %d pages, want 100", covered)
	}
}

func TestDamonTwoPhaseSamplingIgnoresStaleBits(t *testing.T) {
	v := newFakeView(10, 10)
	d := newTestDamon(v)
	d.resetRegions()
	// All pages carry stale access bits (set at allocation). A full
	// aggregation of sampling rounds must report zero accesses, because the
	// two-phase protocol only counts re-accesses after a clear.
	e := simtime.NewEngine()
	for i := 0; i < d.cfg.SamplesPerAggregation-1; i++ {
		d.sample(e)
	}
	for _, r := range d.regions {
		// First round only prepares; later rounds check freshly cleared
		// pages that were never touched again.
		if r.nrAccesses > 1 {
			t.Fatalf("region counted %d accesses from stale bits", r.nrAccesses)
		}
	}
}

func TestDamonCountsGenuineReaccess(t *testing.T) {
	v := newFakeView(0, 4)
	d := newTestDamon(v)
	d.cfg.MinRegions = 1
	d.resetRegions()
	e := simtime.NewEngine()
	total := 0
	for i := 0; i < 20; i++ {
		d.sample(e)
		// Re-touch every page between rounds, as an active request would.
		for id := v.initRange.Start; id < v.initRange.End; id++ {
			v.space.TouchRange(pagemem.Range{Start: id, End: id + 1})
		}
		for _, r := range d.regions {
			total += r.nrAccesses
		}
	}
	if total == 0 {
		t.Fatal("constant re-access never observed by sampling")
	}
}

func TestDamonAgingAndPageout(t *testing.T) {
	v := newFakeView(8, 8)
	d := newTestDamon(v)
	d.resetRegions()
	e := simtime.NewEngine()
	// Run enough full aggregations with no accesses: everything pages out.
	rounds := d.cfg.SamplesPerAggregation * (d.cfg.AggregationsCold + 1)
	for i := 0; i < rounds; i++ {
		d.sample(e)
	}
	if len(v.offloaded) != 16 {
		t.Fatalf("offloaded %d pages, want all 16", len(v.offloaded))
	}
}

func TestDamonMergeAndSplitBounds(t *testing.T) {
	v := newFakeView(128, 128)
	d := newTestDamon(v)
	d.resetRegions()
	for i := 0; i < 50; i++ {
		d.adaptRegions()
		if len(d.regions) > d.cfg.MaxRegions {
			t.Fatalf("regions %d exceed max %d", len(d.regions), d.cfg.MaxRegions)
		}
		covered := 0
		for j, r := range d.regions {
			if r.len() <= 0 {
				t.Fatalf("empty region %d", j)
			}
			covered += r.len()
		}
		if covered != 256 {
			t.Fatalf("adaptation changed coverage: %d pages", covered)
		}
	}
}

func TestDamonMergeJoinsSimilarNeighbors(t *testing.T) {
	v := newFakeView(0, 10)
	d := newTestDamon(v)
	d.cfg.MaxRegions = 1 // suppress the split pass
	d.regions = []damonRegion{
		{start: v.initRange.Start, end: v.initRange.Start + 5, nrAccesses: 3},
		{start: v.initRange.Start + 5, end: v.initRange.End, nrAccesses: 4},
	}
	d.adaptRegions()
	if len(d.regions) != 1 {
		t.Fatalf("similar adjacent regions not merged: %d", len(d.regions))
	}
	if d.regions[0].len() != 10 {
		t.Fatalf("merged region covers %d pages", d.regions[0].len())
	}
}

func TestDamonMergeKeepsDissimilarNeighbors(t *testing.T) {
	v := newFakeView(0, 10)
	d := newTestDamon(v)
	d.cfg.MaxRegions = 1
	d.regions = []damonRegion{
		{start: v.initRange.Start, end: v.initRange.Start + 5, nrAccesses: 0},
		{start: v.initRange.Start + 5, end: v.initRange.End, nrAccesses: 5},
	}
	d.adaptRegions()
	if len(d.regions) != 2 {
		t.Fatalf("dissimilar regions merged: %d", len(d.regions))
	}
}

func TestDamonDefaults(t *testing.T) {
	c := DAMONConfig{}.withDefaults()
	if c.MinRegions != 10 || c.MaxRegions != 100 {
		t.Errorf("region bounds = %d/%d", c.MinRegions, c.MaxRegions)
	}
	if c.SamplesPerAggregation != 5 || c.AggregationsCold != 2 {
		t.Errorf("aggregation defaults = %d/%d", c.SamplesPerAggregation, c.AggregationsCold)
	}
}
