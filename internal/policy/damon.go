package policy

import (
	"math/rand"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
)

// DAMONConfig parameterizes the DAMON baseline. The implementation follows
// the kernel's design: the monitored address space is covered by a bounded
// number of regions; every sampling interval one page per region is checked
// (and its Access bit cleared); every aggregation interval regions are aged,
// a DAMOS "pageout cold" scheme evicts regions that stayed idle long enough,
// and regions adaptively merge/split so hot and cold ranges separate.
//
// Timescales are stretched relative to the kernel defaults (5 ms sampling /
// 100 ms aggregation) to keep event counts tractable in simulation; what
// matters to the paper's §2.2 argument is the *relative* behaviour: sampling
// continues through keep-alive, so an idle container's hot pages appear cold
// and are paged out before the next request.
type DAMONConfig struct {
	// SamplingInterval is the per-region access check period. Default 1 s.
	SamplingInterval time.Duration
	// SamplesPerAggregation is how many sampling rounds form one
	// aggregation. Default 5.
	SamplesPerAggregation int
	// AggregationsCold is how many consecutive zero-access aggregations make
	// a region cold enough to page out. Default 2.
	AggregationsCold int
	// MinRegions / MaxRegions bound the adaptive region count. Defaults
	// 10 / 100 (kernel defaults).
	MinRegions, MaxRegions int
	// Seed drives region sampling and split points.
	Seed int64
}

func (c DAMONConfig) withDefaults() DAMONConfig {
	if c.SamplingInterval <= 0 {
		c.SamplingInterval = time.Second
	}
	if c.SamplesPerAggregation <= 0 {
		c.SamplesPerAggregation = 5
	}
	if c.AggregationsCold <= 0 {
		c.AggregationsCold = 2
	}
	if c.MinRegions <= 0 {
		c.MinRegions = 10
	}
	if c.MaxRegions < c.MinRegions {
		c.MaxRegions = c.MinRegions * 10
	}
	return c
}

// DAMON is the sampling-based offloading baseline. Because it samples
// constantly — including through the keep-alive stage — the hot pages an
// idle container will need for its next request look cold and are offloaded,
// which is exactly the failure mode Figure 2 of the paper demonstrates.
type DAMON struct {
	cfg DAMONConfig
}

// NewDAMON builds the DAMON baseline with defaults applied.
func NewDAMON(cfg DAMONConfig) *DAMON { return &DAMON{cfg: cfg.withDefaults()} }

// Attach implements Policy.
func (d *DAMON) Attach(e *simtime.Engine, v View) ContainerPolicy {
	c := &damonContainer{
		cfg:  d.cfg,
		view: v,
		rng:  lazyrand.New(d.cfg.Seed ^ int64(len(v.ID())+1)*2654435761),
	}
	c.accessed.reserveSegments(v)
	c.ticker = simtime.NewTicker(e, d.cfg.SamplingInterval, c.sample)
	return c
}

// damonRegion is a contiguous monitored page range with its aggregate access
// statistics, mirroring struct damon_region.
type damonRegion struct {
	start, end pagemem.PageID // [start, end)
	nrAccesses int            // sampled accesses in the current aggregation
	age        int            // consecutive aggregations with zero accesses
	// samplingAddr is the page whose Access bit was cleared last round; the
	// kernel's two-phase protocol (prepare: clear; check: did it come back?)
	// is what distinguishes re-accesses from stale bits.
	samplingAddr pagemem.PageID
	prepared     bool
}

func (r damonRegion) len() int { return int(r.end - r.start) }

type damonContainer struct {
	Base
	cfg    DAMONConfig
	view   View
	ticker *simtime.Ticker
	rng    *rand.Rand
	// accessed holds the pages' Accessed bits, set by allocation and by
	// request touches; sampling clears one page per region.
	accessed bitset
	regions  []damonRegion
	// spare is adaptRegions' split buffer, swapped with regions on each
	// split pass so neither is reallocated once both have grown.
	spare   []damonRegion
	samples int
	// sels is the reusable per-aggregation selection-list scratch: a list
	// built per aggregation would escape through the View interface.
	sels []pagemem.Selection
}

// RuntimeLoaded implements ContainerPolicy: allocation wrote the runtime
// segment, so its pages start accessed.
func (c *damonContainer) RuntimeLoaded(*simtime.Engine) { c.accessed.setPages(c.view.RuntimeRange()) }

// InitDone implements ContainerPolicy: the init segment's pages start
// accessed, and monitoring targets exist once it is materialized, so the
// initial regions are laid out here.
func (c *damonContainer) InitDone(*simtime.Engine) {
	c.accessed.setPages(c.view.InitRange())
	c.resetRegions()
}

// Touched implements ContainerPolicy.
func (c *damonContainer) Touched(r pagemem.Range) { c.accessed.setPages(r) }

// resetRegions covers the monitored ranges (runtime + init segments) with
// MinRegions equal slices.
func (c *damonContainer) resetRegions() {
	c.regions = c.regions[:0]
	var spans []damonRegion
	for _, r := range []pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		if r.Len() > 0 {
			spans = append(spans, damonRegion{start: r.Start, end: r.End})
		}
	}
	if len(spans) == 0 {
		return
	}
	total := 0
	for _, s := range spans {
		total += s.len()
	}
	per := total / c.cfg.MinRegions
	if per < 1 {
		per = 1
	}
	for _, s := range spans {
		for start := s.start; start < s.end; {
			end := start + pagemem.PageID(per)
			if end > s.end {
				end = s.end
			}
			c.regions = append(c.regions, damonRegion{start: start, end: end})
			start = end
		}
	}
}

// sample performs one sampling round using the kernel's two-phase protocol:
// first check whether the previously prepared page's Access bit came back
// (a genuine re-access since the last round), then prepare the next random
// page by clearing its bit.
func (c *damonContainer) sample(e *simtime.Engine) {
	if len(c.regions) == 0 {
		if c.view.InitRange().Len() == 0 {
			return // container still cold-starting
		}
		c.resetRegions()
		if len(c.regions) == 0 {
			return
		}
	}
	for i := range c.regions {
		r := &c.regions[i]
		if r.len() <= 0 {
			continue
		}
		if r.prepared && r.samplingAddr >= r.start && r.samplingAddr < r.end &&
			c.accessed.Get(int(r.samplingAddr)) {
			r.nrAccesses++
		}
		// Prepare the next check.
		r.samplingAddr = r.start + pagemem.PageID(c.rng.Intn(r.len()))
		c.accessed.Clear(int(r.samplingAddr))
		r.prepared = true
	}
	c.samples++
	if c.samples >= c.cfg.SamplesPerAggregation {
		c.samples = 0
		c.aggregate(e)
	}
}

// aggregate ages regions, applies the pageout scheme to cold ones, then
// merges and splits regions (the kernel's damon_merge_regions /
// damon_split_regions adaptation step).
func (c *damonContainer) aggregate(e *simtime.Engine) {
	sels := c.sels[:0]
	for i := range c.regions {
		r := &c.regions[i]
		if r.nrAccesses == 0 {
			r.age++
		} else {
			r.age = 0
		}
		if r.age >= c.cfg.AggregationsCold {
			// DAMOS pageout: evict every local page of the region.
			sels = append(sels, pagemem.Selection{R: pagemem.Range{Start: r.start, End: r.end}, St: pagemem.Local})
			r.age = 0 // paged out; restart aging
		}
		r.nrAccesses = 0
	}
	c.sels = sels
	if len(sels) > 0 {
		c.view.OffloadPages(e, sels, 0)
	}
	c.adaptRegions()
}

// adaptRegions merges adjacent regions with similar access counts and splits
// regions while under the cap, so monitoring granularity follows the access
// pattern.
func (c *damonContainer) adaptRegions() {
	if len(c.regions) == 0 {
		return
	}
	// Merge pass: adjacent regions whose access counts differ by <= 1 and
	// that are contiguous in the address space.
	merged := c.regions[:0]
	for _, r := range c.regions {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.end == r.start && absInt(last.nrAccesses-r.nrAccesses) <= 1 {
				last.end = r.end
				continue
			}
		}
		merged = append(merged, r)
	}
	c.regions = merged
	// Split pass: bisect regions at random points while under the cap.
	if len(c.regions)*2 <= c.cfg.MaxRegions {
		split := c.spare[:0]
		for _, r := range c.regions {
			if r.len() < 2 {
				split = append(split, r)
				continue
			}
			cut := r.start + 1 + pagemem.PageID(c.rng.Intn(r.len()-1))
			split = append(split,
				damonRegion{start: r.start, end: cut, age: r.age},
				damonRegion{start: cut, end: r.end, age: r.age})
		}
		c.regions, c.spare = split, c.regions
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Recycle implements ContainerPolicy.
func (c *damonContainer) Recycle(*simtime.Engine) { c.ticker.Stop() }
