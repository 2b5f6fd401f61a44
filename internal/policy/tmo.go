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

// Name implements Policy.
func (t *TMO) Name() string { return "tmo" }

// Attach implements Policy.
func (t *TMO) Attach(e *simtime.Engine, v View) ContainerPolicy {
	c := &tmoContainer{cfg: t.cfg, view: v}
	c.ticker = simtime.NewTicker(e, t.cfg.StepInterval, c.step)
	return c
}

type tmoContainer struct {
	Base
	cfg    TMOConfig
	view   View
	ticker *simtime.Ticker
	// carry accumulates sub-page budget across steps so small containers
	// still converge to StepFraction per step on average.
	carry int64
	// sels is the reusable selection-list scratch: a list built per step
	// would escape through the View interface.
	sels []pagemem.Selection
}

// step performs one conservative offload increment: clear access bits over
// the monitored segments, then offload up to the per-step budget of pages
// that were not touched since the previous step (coldest first: runtime
// segment before init segment, since runtime pages age out sooner).
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
	var scanned [2]pagemem.Range
	sels, left, k := c.sels[:0], budget, 0
	for _, r := range [...]pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		p, n := s.Prefix(r, pagemem.Idle, left)
		scanned[k], k = p, k+1
		if n > 0 {
			sels = append(sels, pagemem.Selection{R: p, St: pagemem.Idle})
		}
		if left -= n; left == 0 {
			break
		}
	}
	c.sels = sels
	if len(sels) > 0 {
		c.view.OffloadPages(e, sels, budget)
	}
	// Pages touched since the last step are young: the step leaves them and
	// clears their bits, up to the last victim, so the next step can
	// re-evaluate. The victims' bits are already clear.
	for _, p := range scanned[:k] {
		s.ClearAccessedRange(p, pagemem.Local)
	}
}

// Recycle implements ContainerPolicy.
func (c *tmoContainer) Recycle(*simtime.Engine) { c.ticker.Stop() }
