package policy

import (
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
)

// TMOConfig parameterizes the TMO baseline (Weiner et al., ASPLOS'22) as the
// paper characterizes it in §2.2: memory is offloaded slowly, step by step —
// about 0.05% of total memory every 6 seconds — and offloading pauses as
// soon as the observed slowdown (PSI) crosses a threshold.
type TMOConfig struct {
	// StepFraction is the share of total container memory offloaded per
	// step. Default 0.0005 (0.05%).
	StepFraction float64
	// StepInterval is the period between offload steps. Default 6 s.
	StepInterval time.Duration
	// StallThreshold pauses offloading while the container's recent
	// fault-stall fraction exceeds it. Default 0.05.
	StallThreshold float64
}

func (c TMOConfig) withDefaults() TMOConfig {
	if c.StepFraction <= 0 {
		c.StepFraction = 0.0005
	}
	if c.StepInterval <= 0 {
		c.StepInterval = 6 * time.Second
	}
	if c.StallThreshold <= 0 {
		c.StallThreshold = 0.05
	}
	return c
}

// TMO is the feedback-based offloading baseline.
type TMO struct {
	cfg TMOConfig
}

// NewTMO builds the TMO baseline with defaults applied.
func NewTMO(cfg TMOConfig) *TMO { return &TMO{cfg: cfg.withDefaults()} }

// Attach implements Policy.
func (t *TMO) Attach(e *simtime.Engine, v View) ContainerPolicy {
	c := &tmoContainer{cfg: t.cfg, view: v}
	c.accessed.reserveSegments(v)
	c.ticker = simtime.NewTicker(e, t.cfg.StepInterval, c.step)
	return c
}

type tmoContainer struct {
	Base
	cfg    TMOConfig
	view   View
	ticker *simtime.Ticker
	// accessed holds the pages' Accessed bits, set by allocation and by
	// request touches and cleared by the step.
	accessed bitset
	// carry accumulates sub-page budget across steps so small containers
	// still converge to StepFraction per step on average.
	carry int64
	// sels is the reusable selection-list scratch: a list built per step
	// would escape through the View interface.
	sels []pagemem.Selection
}

// RuntimeLoaded implements ContainerPolicy: allocation wrote the runtime
// segment, so its pages start accessed, as a faulted-in page is young in
// the kernel.
func (c *tmoContainer) RuntimeLoaded(*simtime.Engine) { c.accessed.setPages(c.view.RuntimeRange()) }

// InitDone implements ContainerPolicy: the init segment's pages start
// accessed.
func (c *tmoContainer) InitDone(*simtime.Engine) { c.accessed.setPages(c.view.InitRange()) }

// Touched implements ContainerPolicy.
func (c *tmoContainer) Touched(r pagemem.Range) { c.accessed.setPages(r) }

// step performs one conservative offload increment: offload up to the
// per-step budget of pages that were not touched since the previous step
// (coldest first: runtime segment before init segment, since runtime pages
// age out sooner), clearing the bits of the touched pages it passes on the
// way so the next step can re-evaluate them.
func (c *tmoContainer) step(e *simtime.Engine) {
	if c.view.StallFraction() > c.cfg.StallThreshold {
		return // feedback loop: performance is already degrading
	}
	s := c.view.Space()
	c.carry += int64(float64(c.view.MemoryBytes()) * c.cfg.StepFraction)
	pageBytes := int64(s.PageSize())
	budget := int(c.carry / pageBytes)
	if budget <= 0 {
		return
	}
	c.carry -= int64(budget) * pageBytes
	sels, left := c.sels[:0], budget
	for _, r := range [...]pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		if sels, left = c.idleStretches(s, r, sels, left); left == 0 {
			break
		}
	}
	c.sels = sels
	if len(sels) > 0 {
		c.view.OffloadPages(e, sels, budget)
	}
}

// idleStretches walks the local pages of r in page order, once, against the
// access bits: each stretch of clear bits is appended to sels as a Local
// selection, each stretch of set bits is cleared, and the walk ends at the
// left-th idle page (left > 0), leaving the bits after it alone. It returns
// sels and the budget left.
func (c *tmoContainer) idleStretches(s *pagemem.Space, r pagemem.Range, sels []pagemem.Selection, left int) ([]pagemem.Selection, int) {
	for it := s.Runs(r, pagemem.Local); it.Next(); {
		p, end := int(max(it.Run.Start, r.Start)), int(min(it.Run.End, r.End))
		for p < end {
			// Look for the next accessed page no further than the budget
			// reaches; left may be math.MaxInt, so p+left could overflow.
			if q := c.accessed.next(p, p+min(left, end-p), true); p < q {
				sels = append(sels, pagemem.Selection{
					R:  pagemem.Range{Start: pagemem.PageID(p), End: pagemem.PageID(q)},
					St: pagemem.Local,
				})
				if left -= q - p; left == 0 {
					return sels, 0
				}
				p = q
			}
			q := c.accessed.next(p, end, false)
			c.accessed.ClearRange(p, q)
			p = q
		}
	}
	return sels, left
}

// Recycle implements ContainerPolicy.
func (c *tmoContainer) Recycle(*simtime.Engine) { c.ticker.Stop() }
