// Package core implements FaaSMem, the paper's contribution: a
// segment-aware memory-offloading policy for serverless containers under the
// memory-pool architecture.
//
// Mechanisms (paper §4–§6):
//
//   - Pucket: the platform's time barriers split a container's pages into a
//     Runtime Pucket, an Init Pucket, and an unmonitored execution segment.
//     Each Pucket's inactive list is the set of its pages still in the
//     Inactive state; accessed pages move to the shared hot page pool.
//   - Reactive offload (§5.1): when the first request completes, every page
//     still inactive in the Runtime Pucket is offloaded.
//   - Window-based offload (§5.2): the Init Pucket is lazily offloaded after
//     an adaptive request-window, chosen where the descent gradient of the
//     remaining inactive pages flattens out.
//   - Periodic rollback (§5.3): every request-window (and at least the time
//     parameter t apart), hot-pool pages roll back to their Puckets; pages
//     not re-promoted within the next window are offloaded.
//   - Semi-warm (§6): after a per-function timing chosen as a high
//     percentile of the function's last 512 container reused intervals,
//     an idle container's remaining memory — including hot pages — is
//     gradually offloaded (percentile- or amount-based), throttled by the
//     global bandwidth governor and aborted on request arrival.
package core

import (
	"time"

	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
)

// Config tunes FaaSMem. The zero value plus defaults reproduces the paper's
// configuration.
type Config struct {
	// DisablePucket turns off the segment-wise cold-page offloading (the
	// "FaaSMem w/o Pucket" ablation of Fig. 13).
	DisablePucket bool
	// DisableSemiWarm turns off the semi-warm period (the "FaaSMem w/o
	// Semi-warm" ablation of Fig. 13).
	DisableSemiWarm bool

	// GradientEpsilon is the relative per-request decrease of remaining
	// init-pucket pages below which the descent gradient counts as zero.
	// Default 0.02 (2%).
	GradientEpsilon float64
	// GradientRuns is how many consecutive near-zero-gradient requests fix
	// the request-window. Default 3.
	GradientRuns int
	// MaxRequestWindow caps the request-window. Default 32 (covers the
	// "prudent choice of a larger request-window, such as 20" for web).
	MaxRequestWindow int
	// FixedRequestWindow, when positive, disables the descent-gradient
	// detection and offloads the Init Pucket after exactly this many
	// requests — the ablation of §5.2's adaptive window (a too-small fixed
	// window recalls cold-tail pages; a too-large one strands memory).
	FixedRequestWindow int

	// RollbackMinInterval is the paper's time parameter t: the minimum time
	// between consecutive rollbacks. Default 10 s (§8.5 recommends ≥ 10 s).
	RollbackMinInterval time.Duration

	// SemiWarmPercentile is the percentile of the container reused-interval
	// distribution used as semi-warm start timing. Default 99 (§6.1's
	// pessimistic estimation protecting the 95%-ile latency).
	SemiWarmPercentile float64
	// MinIntervalSamples is how many reuse observations a function needs
	// before the percentile estimate is trusted. Default 8.
	MinIntervalSamples int
	// FallbackSemiWarmDelay is the start timing used while a function has
	// too little history. Default 2 m.
	FallbackSemiWarmDelay time.Duration
	// LargeContainerBytes selects percentile-based gradual offload for
	// containers at or above this footprint and amount-based below it
	// (§6.2: "large functions adopt the percentile-based approach ... small
	// functions follow the amount-based approach"). Default 256 MB.
	LargeContainerBytes int64
	// PercentPerSecond is the percentile-based offload speed. Default 0.01
	// (1%/s).
	PercentPerSecond float64
	// BytesPerSecond is the amount-based offload speed. Default 1 MB/s.
	BytesPerSecond int64
	// OffloadTick is the granularity of gradual offloading. Default 1 s.
	OffloadTick time.Duration

	// ColdStartAwareTiming enables the correction the paper's §8.3.2 points
	// at as an opportunity: under bursty load, cold starts are not reflected
	// in the reused-interval data, so the collected 99%-ile underestimates
	// the ideal semi-warm timing and tail latency suffers. With this switch,
	// the semi-warm delay is stretched by the function's observed cold-start
	// fraction, postponing hot-page offloading for functions whose interval
	// history is known-biased.
	ColdStartAwareTiming bool
}

func (c Config) withDefaults() Config {
	if c.GradientEpsilon <= 0 {
		c.GradientEpsilon = 0.02
	}
	if c.GradientRuns <= 0 {
		c.GradientRuns = 3
	}
	if c.MaxRequestWindow <= 0 {
		c.MaxRequestWindow = 32
	}
	if c.RollbackMinInterval <= 0 {
		c.RollbackMinInterval = 10 * time.Second
	}
	if c.SemiWarmPercentile <= 0 || c.SemiWarmPercentile > 100 {
		c.SemiWarmPercentile = 99
	}
	if c.MinIntervalSamples <= 0 {
		c.MinIntervalSamples = 8
	}
	if c.FallbackSemiWarmDelay <= 0 {
		c.FallbackSemiWarmDelay = 2 * time.Minute
	}
	if c.LargeContainerBytes <= 0 {
		c.LargeContainerBytes = 256 * 1_000_000
	}
	if c.PercentPerSecond <= 0 {
		c.PercentPerSecond = 0.01
	}
	if c.BytesPerSecond <= 0 {
		c.BytesPerSecond = 1_000_000
	}
	if c.OffloadTick <= 0 {
		c.OffloadTick = time.Second
	}
	return c
}

// FaaSMem is the policy object shared by all containers; it owns per-function
// reuse-interval history and ablation switches. It implements policy.Policy.
type FaaSMem struct {
	cfg  Config
	fns  map[string]*funcHistory
	stat Stats
}

// Stats aggregates policy-level observations for the evaluation.
type Stats struct {
	// RuntimeOffloads counts reactive Runtime-Pucket offload operations.
	RuntimeOffloads int
	// InitOffloads counts window-based Init-Pucket offload operations.
	InitOffloads int
	// Rollbacks counts periodic rollback cycles started.
	Rollbacks int
	// SemiWarmEntries counts containers that entered the semi-warm period.
	SemiWarmEntries int
	// Containers collects one sample per recycled container (Fig. 14 data).
	Containers []ContainerSample
	// WindowSizes lists the request-window sizes chosen per container.
	WindowSizes []int
}

// ContainerSample records one recycled container's semi-warm accounting.
type ContainerSample struct {
	// FunctionID names the function the container served.
	FunctionID string
	// SemiWarmShare is the fraction of the container's lifetime spent in the
	// semi-warm period.
	SemiWarmShare float64
	// Lifetime is the container's total lifetime, launch to recycle.
	Lifetime time.Duration
}

type funcHistory struct {
	// intervals holds the last 512 reuse intervals, seeded or recorded.
	intervals metrics.Recent
	// coldStarts and reuses feed the cold-start-aware timing correction.
	coldStarts int
	reuses     int
}

// New builds a FaaSMem policy with defaults applied.
func New(cfg Config) *FaaSMem {
	return &FaaSMem{cfg: cfg.withDefaults(), fns: make(map[string]*funcHistory)}
}

// Stats returns the accumulated policy statistics.
func (f *FaaSMem) Stats() *Stats { return &f.stat }

// SeedReuseIntervals installs a copy of an offline trace analysis's
// reused-interval history (§6.1's provider-side profiling) as fnID's,
// replacing what it held, so seed before the run.
func (f *FaaSMem) SeedReuseIntervals(fnID string, intervals metrics.Recent) {
	f.history(fnID).intervals = intervals.Clone()
}

func (f *FaaSMem) history(fnID string) *funcHistory {
	h := f.fns[fnID]
	if h == nil {
		h = &funcHistory{}
		f.fns[fnID] = h
	}
	return h
}

func (f *FaaSMem) recordReuse(fnID string, idle time.Duration) {
	h := f.history(fnID)
	h.intervals.Push(idle)
	h.reuses++
}

// semiWarmDelay computes a function's semi-warm start timing: the
// configured percentile of the reuse history once there is enough of it, or
// the fallback delay. With ColdStartAwareTiming, the percentile estimate
// stretches by the observed cold-start fraction to compensate for the
// censoring bias §8.3.2 describes.
func (f *FaaSMem) semiWarmDelay(fnID string) time.Duration {
	h := f.history(fnID)
	if h.intervals.Len() < f.cfg.MinIntervalSamples {
		return f.cfg.FallbackSemiWarmDelay
	}
	delay := h.intervals.Percentile(f.cfg.SemiWarmPercentile)
	if f.cfg.ColdStartAwareTiming {
		if launches := h.coldStarts + h.reuses; launches > 0 {
			coldFrac := float64(h.coldStarts) / float64(launches)
			delay += time.Duration(coldFrac * float64(delay))
		}
	}
	return delay
}

// Attach implements policy.Policy.
func (f *FaaSMem) Attach(e *simtime.Engine, v policy.View) policy.ContainerPolicy {
	f.history(v.FunctionID()).coldStarts++
	c := &container{
		parent:  f,
		cfg:     f.cfg,
		view:    v,
		born:    e.Now(),
		lastRB:  e.Now(),
		history: make([]int, 0, 8),
	}
	c.semiWarmFn = c.startSemiWarm
	return c
}

// container is the per-container FaaSMem state machine.
type container struct {
	policy.Base
	parent *FaaSMem
	cfg    Config
	view   policy.View

	born simtime.Time

	// Init-Pucket window detection.
	history       []int // remaining inactive init pages after each request
	window        int   // chosen request-window, 0 while undetermined
	initOffloaded bool

	// Rollback cycle.
	lastRB        simtime.Time
	rollbackArmed bool
	reqsSinceRB   int

	// sels is the semi-warm offloader's reusable selection-list scratch: a
	// list built per tick would escape through the View interface.
	sels []pagemem.Selection
	// rt and init are the Runtime and Init Puckets, refreshed from the view
	// on every use; they hold their OffloadInactive selection lists.
	rt, init Pucket

	// Semi-warm.
	idleStart    simtime.Time
	semiWarmEv   simtime.Handle
	semiWarmFn   simtime.Func // startSemiWarm, bound once so Idle allocates nothing
	semiWarmTick *simtime.Ticker
	semiWarm     bool
	semiWarmTime time.Duration // accumulated semi-warm duration
	semiWarmFrom simtime.Time
}

// runtimePucket and initPucket view the container's sealed segments as the
// paper's Puckets.
func (c *container) runtimePucket() *Pucket {
	c.rt.Seg = c.view.RuntimeRange()
	return &c.rt
}

func (c *container) initPucket() *Pucket {
	c.init.Seg = c.view.InitRange()
	return &c.init
}

// InSemiWarm implements policy.SemiWarmer.
func (c *container) InSemiWarm() bool { return c.semiWarm }

// RequestStart implements policy.ContainerPolicy: a request aborts any
// pending or active semi-warm offloading and records the reuse interval.
func (c *container) RequestStart(e *simtime.Engine) {
	if c.view.RequestsServed() > 0 {
		// Reused after idling: feed the reuse-interval history.
		c.parent.recordReuse(c.view.FunctionID(), e.Now()-c.idleStart)
	}
	c.stopSemiWarm(e)
}

// RequestEnd implements policy.ContainerPolicy: the Pucket policies run at
// request completion boundaries.
func (c *container) RequestEnd(e *simtime.Engine) {
	if c.cfg.DisablePucket {
		return
	}
	n := c.view.RequestsServed()
	if n == 1 {
		c.offloadRuntimePucket(e)
	}
	if !c.initOffloaded {
		c.trackInitWindow(e, n)
	} else {
		c.rollbackCycle(e, n)
	}
}

// offloadRuntimePucket applies §5.1: everything still inactive in the
// Runtime Pucket after the first request goes remote.
func (c *container) offloadRuntimePucket(e *simtime.Engine) {
	if c.runtimePucket().OffloadInactive(e, c.view) > 0 {
		c.parent.stat.RuntimeOffloads++
	}
}

// trackInitWindow applies §5.2: watch the descent gradient of the remaining
// inactive init pages; when it flattens (or the cap is hit), fix the window
// and offload the remainder. With FixedRequestWindow set, the window is
// predetermined instead.
func (c *container) trackInitWindow(e *simtime.Engine, n int) {
	if w := c.cfg.FixedRequestWindow; w > 0 {
		if n >= w {
			c.fixWindowAndOffload(e, n)
		}
		return
	}
	remaining := c.initPucket().InactivePages(c.view.Space())
	c.history = append(c.history, remaining)

	flat := 0
	for i := len(c.history) - 1; i > 0 && flat < c.cfg.GradientRuns; i-- {
		prev, cur := c.history[i-1], c.history[i]
		if prev == 0 {
			flat++
			continue
		}
		drop := float64(prev-cur) / float64(prev)
		if drop > c.cfg.GradientEpsilon {
			break
		}
		flat++
	}
	if flat >= c.cfg.GradientRuns || n >= c.cfg.MaxRequestWindow {
		c.fixWindowAndOffload(e, n)
	}
}

// fixWindowAndOffload seals the request-window at n and offloads the Init
// Pucket's remaining inactive pages.
func (c *container) fixWindowAndOffload(e *simtime.Engine, n int) {
	c.window = n
	c.initOffloaded = true
	c.parent.stat.WindowSizes = append(c.parent.stat.WindowSizes, n)
	c.view.Telemetry().WindowFixed(e.Now(), c.view.ID(), c.view.FunctionID(), n)
	if c.initPucket().OffloadInactive(e, c.view) > 0 {
		c.parent.stat.InitOffloads++
	}
	c.reqsSinceRB = 0
	c.lastRB = e.Now()
}

// rollbackCycle applies §5.3: when both the request-window and the time
// parameter t have elapsed, demote the hot pool back to the Puckets; after a
// further request-window, offload whatever stayed inactive.
func (c *container) rollbackCycle(e *simtime.Engine, n int) {
	c.reqsSinceRB++
	w := c.window
	if w < 1 {
		w = 1
	}
	if c.rollbackArmed {
		if c.reqsSinceRB >= w {
			// Re-evaluation window over: pages not re-promoted are cold.
			c.runtimePucket().OffloadInactive(e, c.view)
			c.initPucket().OffloadInactive(e, c.view)
			c.rollbackArmed = false
			c.reqsSinceRB = 0
			c.lastRB = e.Now()
		}
		return
	}
	if c.reqsSinceRB >= w && e.Now()-c.lastRB >= c.cfg.RollbackMinInterval {
		c.rollback(e)
		c.rollbackArmed = true
		c.reqsSinceRB = 0
		c.parent.stat.Rollbacks++
	}
}

// rollback demotes every hot-pool page of the Runtime and Init Puckets back
// to its original Pucket (original = containing range, since Puckets are
// contiguous allocation epochs).
func (c *container) rollback(e *simtime.Engine) {
	s := c.view.Space()
	n := c.runtimePucket().Rollback(s)
	n += c.initPucket().Rollback(s)
	c.view.Telemetry().Rollback(e.Now(), c.view.ID(), c.view.FunctionID(), n, int64(n)*int64(s.PageSize()))
}

// Idle implements policy.ContainerPolicy: schedule the semi-warm period.
func (c *container) Idle(e *simtime.Engine) {
	c.idleStart = e.Now()
	if c.cfg.DisableSemiWarm {
		return
	}
	delay := c.parent.semiWarmDelay(c.view.FunctionID())
	c.semiWarmEv = e.After(delay, c.semiWarmFn)
}

// startSemiWarm begins gradual hot-page offloading (§6.2).
func (c *container) startSemiWarm(e *simtime.Engine) {
	if !c.view.Idle() {
		return
	}
	c.semiWarm = true
	c.semiWarmFrom = e.Now()
	c.parent.stat.SemiWarmEntries++
	c.view.Telemetry().SemiWarmEnter(e.Now(), c.view.ID(), c.view.FunctionID(), c.view.Space().LocalBytes())
	if c.semiWarmTick == nil {
		c.semiWarmTick = simtime.NewTicker(e, c.cfg.OffloadTick, c.gradualOffload)
	} else {
		c.semiWarmTick.Reset(c.cfg.OffloadTick)
	}
}

// gradualOffload moves one tick's budget of pages to the pool: inactive
// pages first (cheapest to lose), then hot pages.
func (c *container) gradualOffload(e *simtime.Engine) {
	s := c.view.Space()
	total := s.TotalBytes()
	if s.LocalBytes() == 0 || total == 0 {
		c.stopTicker()
		return
	}
	var budget int64
	if total >= c.cfg.LargeContainerBytes {
		budget = int64(float64(total) * c.cfg.PercentPerSecond * c.cfg.OffloadTick.Seconds())
	} else {
		budget = int64(float64(c.cfg.BytesPerSecond) * c.cfg.OffloadTick.Seconds())
	}
	// Global bandwidth control: uniformly scale down near the link limit.
	budget = int64(float64(budget) * c.view.OffloadScale())
	pages := s.PagesOf(budget)
	if pages <= 0 {
		return
	}
	rt, init := c.view.RuntimeRange(), c.view.InitRange()
	sels := append(c.sels[:0],
		pagemem.Selection{R: rt, St: pagemem.Inactive}, pagemem.Selection{R: init, St: pagemem.Inactive},
		pagemem.Selection{R: rt, St: pagemem.Hot}, pagemem.Selection{R: init, St: pagemem.Hot})
	c.sels = sels
	// A tick the pool refuses moves nothing and keeps the ticker: the local
	// pages all lie in rt and init, so the next tick offers them again.
	c.view.OffloadPages(e, sels, pages)
}

// stopTicker stops the gradual offload; the ticker is kept for the next
// semi-warm period.
func (c *container) stopTicker() {
	if c.semiWarmTick != nil {
		c.semiWarmTick.Stop()
	}
}

// stopSemiWarm cancels pending/active semi-warm offloading at reuse time.
func (c *container) stopSemiWarm(e *simtime.Engine) {
	e.Cancel(c.semiWarmEv)
	c.semiWarmEv = simtime.Handle{}
	if c.semiWarm {
		c.semiWarmTime += e.Now() - c.semiWarmFrom
		c.semiWarm = false
		c.view.Telemetry().SemiWarmExit(c.semiWarmFrom, e.Now(), c.view.ID(), c.view.FunctionID(), c.view.Space().RemoteBytes())
	}
	c.stopTicker()
}

// Recycle implements policy.ContainerPolicy: release timers and record
// per-container semi-warm statistics.
func (c *container) Recycle(e *simtime.Engine) {
	c.stopSemiWarm(e)
	lifetime := e.Now() - c.born
	share := 0.0
	if lifetime > 0 {
		share = float64(c.semiWarmTime) / float64(lifetime)
	}
	c.parent.stat.Containers = append(c.parent.stat.Containers, ContainerSample{
		FunctionID:    c.view.FunctionID(),
		SemiWarmShare: share,
		Lifetime:      lifetime,
	})
}
