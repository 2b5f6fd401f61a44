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
//     percentile of the container reused-interval distribution, an idle
//     container's remaining memory — including hot pages — is gradually
//     offloaded (percentile- or amount-based), throttled by the global
//     bandwidth governor and aborted on request arrival.
package core

import (
	"slices"
	"time"

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

	// HistoryLimit bounds the per-function reused-interval history kept for
	// timing estimation. Default 512.
	HistoryLimit int

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
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 512
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

// SemiWarmShares extracts the per-container semi-warm lifetime fractions.
func (s *Stats) SemiWarmShares() []float64 {
	out := make([]float64, len(s.Containers))
	for i, c := range s.Containers {
		out[i] = c.SemiWarmShare
	}
	return out
}

// ContainerLifetimes extracts the per-container lifetimes.
func (s *Stats) ContainerLifetimes() []time.Duration {
	out := make([]time.Duration, len(s.Containers))
	for i, c := range s.Containers {
		out[i] = c.Lifetime
	}
	return out
}

type funcHistory struct {
	intervals []time.Duration
	// sorted mirrors intervals in ascending order so percentile queries are a
	// single index instead of a copy+sort per idle transition. Every mutation
	// of intervals updates it in place.
	sorted   []time.Duration
	override time.Duration // explicit semi-warm timing, 0 if unset
	// coldStarts and reuses feed the cold-start-aware timing correction.
	coldStarts int
	reuses     int
}

// insertSorted adds d to the sorted mirror.
func (h *funcHistory) insertSorted(d time.Duration) {
	i, _ := slices.BinarySearch(h.sorted, d)
	h.sorted = append(h.sorted, 0)
	copy(h.sorted[i+1:], h.sorted[i:])
	h.sorted[i] = d
}

// removeSorted drops one occurrence of d from the sorted mirror.
func (h *funcHistory) removeSorted(d time.Duration) {
	if i, ok := slices.BinarySearch(h.sorted, d); ok {
		h.sorted = append(h.sorted[:i], h.sorted[i+1:]...)
	}
}

// New builds a FaaSMem policy with defaults applied.
func New(cfg Config) *FaaSMem {
	return &FaaSMem{cfg: cfg.withDefaults(), fns: make(map[string]*funcHistory)}
}

// Name implements policy.Policy, reflecting ablation switches so experiment
// output is self-describing.
func (f *FaaSMem) Name() string {
	switch {
	case f.cfg.DisablePucket && f.cfg.DisableSemiWarm:
		return "faasmem-w/o-pucket-semiwarm"
	case f.cfg.DisablePucket:
		return "faasmem-w/o-pucket"
	case f.cfg.DisableSemiWarm:
		return "faasmem-w/o-semiwarm"
	default:
		return "faasmem"
	}
}

// Stats returns the accumulated policy statistics.
func (f *FaaSMem) Stats() *Stats { return &f.stat }

// Config returns the effective configuration.
func (f *FaaSMem) Config() Config { return f.cfg }

// SetSemiWarmTiming pins a function's semi-warm start timing, as a provider
// would from offline profiling of its historical trace (§6.1).
func (f *FaaSMem) SetSemiWarmTiming(fnID string, d time.Duration) {
	f.history(fnID).override = d
}

// SeedReuseIntervals pre-populates a function's container reused-interval
// history from an offline trace analysis.
func (f *FaaSMem) SeedReuseIntervals(fnID string, intervals []time.Duration) {
	h := f.history(fnID)
	for _, d := range intervals {
		h.intervals = append(h.intervals, d)
		h.insertSorted(d)
	}
	f.trim(h)
}

func (f *FaaSMem) history(fnID string) *funcHistory {
	h := f.fns[fnID]
	if h == nil {
		h = &funcHistory{}
		f.fns[fnID] = h
	}
	return h
}

func (f *FaaSMem) trim(h *funcHistory) {
	if over := len(h.intervals) - f.cfg.HistoryLimit; over > 0 {
		for _, d := range h.intervals[:over] {
			h.removeSorted(d)
		}
		h.intervals = append(h.intervals[:0], h.intervals[over:]...)
	}
}

func (f *FaaSMem) recordReuse(fnID string, idle time.Duration) {
	h := f.history(fnID)
	h.intervals = append(h.intervals, idle)
	h.insertSorted(idle)
	h.reuses++
	f.trim(h)
}

// semiWarmDelay computes a function's semi-warm start timing: the explicit
// override if set, the configured percentile of the reuse history once there
// is enough of it, or the fallback delay. With ColdStartAwareTiming, the
// percentile estimate stretches by the observed cold-start fraction to
// compensate for the censoring bias §8.3.2 describes.
func (f *FaaSMem) semiWarmDelay(fnID string) time.Duration {
	h := f.history(fnID)
	if h.override > 0 {
		return h.override
	}
	if len(h.intervals) < f.cfg.MinIntervalSamples {
		return f.cfg.FallbackSemiWarmDelay
	}
	s := h.sorted
	idx := int(f.cfg.SemiWarmPercentile / 100 * float64(len(s)-1))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	delay := s[idx]
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
	return &container{
		parent:  f,
		cfg:     f.cfg,
		view:    v,
		born:    e.Now(),
		lastRB:  e.Now(),
		history: make([]int, 0, 8),
	}
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

	// victims is the reusable victim-list scratch shared by every offload
	// this container issues (single-threaded per engine).
	victims []pagemem.WordMask

	// Semi-warm.
	idleStart    simtime.Time
	semiWarmEv   simtime.Handle
	semiWarmTick *simtime.Ticker
	semiWarm     bool
	semiWarmTime time.Duration // accumulated semi-warm duration
	semiWarmFrom simtime.Time
}

// runtimePucket and initPucket view the container's sealed segments as the
// paper's Puckets.
func (c *container) runtimePucket() Pucket {
	return Pucket{Seg: c.view.RuntimeRange(), Gen: c.view.RuntimeGen()}
}

func (c *container) initPucket() Pucket {
	return Pucket{Seg: c.view.InitRange(), Gen: c.view.InitGen()}
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
	var n int
	n, c.victims = c.runtimePucket().OffloadInactiveBuf(e, c.view, c.victims)
	if n > 0 {
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
	var moved int
	moved, c.victims = c.initPucket().OffloadInactiveBuf(e, c.view, c.victims)
	if moved > 0 {
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
			_, c.victims = c.runtimePucket().OffloadInactiveBuf(e, c.view, c.victims)
			_, c.victims = c.initPucket().OffloadInactiveBuf(e, c.view, c.victims)
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
	lru := c.view.LRU()
	n := c.runtimePucket().Rollback(s, lru)
	n += c.initPucket().Rollback(s, lru)
	c.view.Telemetry().Rollback(e.Now(), c.view.ID(), c.view.FunctionID(), n, int64(n)*int64(s.PageSize()))
}

// Idle implements policy.ContainerPolicy: schedule the semi-warm period.
func (c *container) Idle(e *simtime.Engine) {
	c.idleStart = e.Now()
	if c.cfg.DisableSemiWarm {
		return
	}
	delay := c.parent.semiWarmDelay(c.view.FunctionID())
	c.semiWarmEv = e.After(delay, c.startSemiWarm)
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
	c.semiWarmTick = simtime.NewTicker(e, c.cfg.OffloadTick, c.gradualOffload)
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
	victims, left := c.victims[:0], pages
	for _, st := range []pagemem.State{pagemem.Inactive, pagemem.Hot} {
		for _, r := range []pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
			if left == 0 {
				break
			}
			var n int
			victims, n = s.AppendWords(victims, r, st, left)
			left -= n
		}
	}
	c.victims = victims
	if len(victims) == 0 {
		c.stopTicker()
		return
	}
	c.view.OffloadPages(e, victims)
}

func (c *container) stopTicker() {
	if c.semiWarmTick != nil {
		c.semiWarmTick.Stop()
		c.semiWarmTick = nil
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
