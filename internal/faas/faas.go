// Package faas is the serverless platform substrate: a discrete-event
// simulation of an OpenWhisk-like compute node under the memory-pool
// architecture. It owns container lifecycles (cold start → init → execution
// ↔ keep-alive → recycle), per-request page-access replay at page
// granularity, remote-fault latency accounting, keep-alive expiry, and the
// node-level memory bookkeeping every experiment reads.
//
// The platform is policy-agnostic: a policy.Policy attached at construction
// receives lifecycle hooks per container and drives offloading through the
// policy.View interface that *Container implements. The paper's baseline is
// exactly this platform with the NoOffload policy.
package faas

import (
	"math/rand"
	"time"

	"github.com/faasmem/faasmem/internal/cgroup"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// Config parameterizes a platform instance.
type Config struct {
	// KeepAliveTimeout is how long an idle container survives. The paper's
	// setup uses 10 minutes (§8.1). Default 10 m.
	KeepAliveTimeout time.Duration
	// Pool configures the remote memory pool and its link. Ignored when the
	// platform is constructed with NewWithPool (rack-shared pool).
	Pool rmem.Config
	// Swap configures the node's swap path (readahead, local fallback).
	Swap SwapConfig
	// AdaptiveKeepAlive replaces the fixed keep-alive timeout with a
	// per-function adaptive one in the spirit of the hybrid-histogram policy
	// (Shahrad et al., §10 of the paper): once a function has enough reuse
	// observations, its containers idle out after the 99th percentile of
	// its last 512 reuse intervals (with headroom), clamped to
	// [adaptiveKeepAliveMin, KeepAliveTimeout]. The paper suggests FaaSMem
	// composes with such keep-alive policies for further savings.
	AdaptiveKeepAlive bool
	// NodeMemoryLimit caps the node's local DRAM in bytes. When a charge
	// would exceed it, the platform evicts idle containers (longest-idle
	// first) until the node fits — the real mechanism behind deployment
	// density: a node that offloads more keeps more containers warm within
	// the same DRAM. Zero means unlimited.
	NodeMemoryLimit int64
	// Telemetry attaches the platform's sinks (telemetry.Hub), bound to
	// NodeID ("n0" when empty). Every occurrence on the node — container
	// lifecycles, requests, faults, offloads, pool link traffic and fault
	// recovery, and the policy's own through View.Telemetry — is one emit
	// call fanned out to the sinks that are on: the tracer and registry,
	// one causal span tree per completed request (launch → init → exec with fault-stall / restore / backlog children) plus background
	// link work, the timeline's per-window counters and latency with a
	// per-window gauge sampler (local/remote bytes, live containers, pool
	// occupancy), and the per-window worst-K exemplar cells keyed by (node,
	// tenant). Each nil sink falls back to the process default
	// (telemetry.SetDefault); with none set, the zero Hub disables all
	// instrumentation, and every disabled path is allocation-free.
	Telemetry telemetry.Hub
	// Seed drives all stochastic workload behaviour deterministically.
	Seed int64
	// NodeID names this compute node in pool-side (memnode) accounting.
	// Container IDs repeat across the platforms of a rack-shared pool, so
	// the cluster assigns each node a distinct ID to keep described-page
	// owners unique. Empty is fine for a single-node platform.
	NodeID string
}

// SwapConfig configures the swap path of the paper's ported Fastswap:
// offloaded pages occupy swapfile slots (the node's remote pages; the
// artifact's 32 GiB swapfile never fills, so there is no capacity), and
// demand faults may read ahead neighbouring slots the way the kernel's swap
// readahead (vm.page-cluster) does — the hook for the §10 "prefetching
// remote memory" (Leap) extension.
type SwapConfig struct {
	// ReadaheadPages is how many virtually-contiguous remote neighbours one
	// fault pulls in alongside the faulting page (vm.page-cluster=3 reads
	// 8 pages). Zero disables readahead; a negative value clamps to zero.
	ReadaheadPages int
	// FallbackReadLatency, when positive, models a write-through local copy
	// of every offloaded page (dual swap backends: RDMA primary, disk
	// secondary). A fetch that times out against the pool can then be
	// served locally at this per-page read latency instead of forcing a
	// cold re-init. Zero disables the fallback.
	FallbackReadLatency time.Duration
}

// adaptiveKeepAliveMin floors the adaptive keep-alive timeout.
const adaptiveKeepAliveMin = 15 * time.Second

func (c Config) withDefaults() Config {
	if c.KeepAliveTimeout <= 0 {
		c.KeepAliveTimeout = 10 * time.Minute
	}
	if c.Swap.ReadaheadPages < 0 {
		c.Swap.ReadaheadPages = 0
	}
	return c
}

// keepAliveFor returns the keep-alive timeout for one of f's containers
// entering idle now.
func (p *Platform) keepAliveFor(f *Function) time.Duration {
	const minSamples = 16
	if !p.cfg.AdaptiveKeepAlive || f.reuse.Len() < minSamples {
		return p.cfg.KeepAliveTimeout
	}
	// 2x headroom over the observed tail: reuse intervals are censored by
	// cold starts (§8.3.2), so the raw percentile underestimates.
	return min(max(2*f.reuse.Percentile(99), adaptiveKeepAliveMin), p.cfg.KeepAliveTimeout)
}

// FunctionStats aggregates per-function observations over a run.
type FunctionStats struct {
	// Latency samples end-to-end request latency (arrival → completion),
	// including cold-start time and remote-fault stalls.
	Latency metrics.Sampler
	// Requests is the number of completed requests.
	Requests int
	// ColdStarts counts requests that launched a new container.
	ColdStarts int
	// WarmStarts counts requests served by an idle container with its full
	// hot set local.
	WarmStarts int
	// SemiWarmStarts counts requests served by an idle container that had
	// offloaded part of its memory (they recall pages on access).
	SemiWarmStarts int
	// FaultPages counts remote page faults across all requests.
	FaultPages int64
	// RuntimeFaultPages counts faults on runtime-segment pages — the
	// "recalls from the Runtime Pucket" of Fig. 8.
	RuntimeFaultPages int64
	// InitFaultPages counts faults on init-segment pages.
	InitFaultPages int64
	// WriteBreakPages counts runtime pages privatized by pool-side
	// copy-on-write unmerge breaks (write-hot workloads against merge
	// domains); WriteBreakRecallPages counts break pages the node could not
	// re-home privately, recalled back to local memory instead.
	WriteBreakPages       int64
	WriteBreakRecallPages int64
	// RecoveryStats counts the fault-recovery outcomes of the function's
	// requests.
	RecoveryStats
}

// StageHooks attaches workflow state-passing callbacks to one invocation.
// StateIn and StateOut are priced exactly once, at the request's execution
// start (state-out overlaps compute: the stage streams its output region as
// it runs), and their latencies extend the request. Done fires when the
// request completes — the workflow engine's dependency bookkeeping. A
// request that is replayed through a cold re-init carries its hooks to the
// fresh container, so the pricing still happens exactly once, on the
// execution that completes.
type StageHooks struct {
	// StateIn maps the stage's upstream shared-state regions (or prices
	// their local re-derivation); returns added critical-path latency and
	// the bytes moved, for span attribution.
	StateIn func(now simtime.Time) (time.Duration, int64)
	// StateOut produces the stage's output region into the pool (or prices
	// local/storage hand-off); returns added latency and bytes moved.
	StateOut func(now simtime.Time) (time.Duration, int64)
	// Done observes the request's completion time.
	Done func(e *simtime.Engine, finished simtime.Time)
}

// Function is a registered function with its container fleet.
type Function struct {
	id      string
	profile *workload.Profile
	idle    []*Container // LIFO: most recently idled last
	live    int
	stats   FunctionStats
	reuse   metrics.Recent // idle durations at reuse; pushed only with AdaptiveKeepAlive on
}

// Profile returns the function's workload profile.
func (f *Function) Profile() *workload.Profile { return f.profile }

// Stats exposes the accumulated statistics.
func (f *Function) Stats() *FunctionStats { return &f.stats }

// LiveContainers returns the number of containers currently alive.
func (f *Function) LiveContainers() int { return f.live }

// IdleContainer returns the most recently idled container, or nil if none is
// idle — useful for inspecting memory state in experiments and tests.
func (f *Function) IdleContainer() *Container {
	if len(f.idle) == 0 {
		return nil
	}
	return f.idle[len(f.idle)-1]
}

// Platform is one compute node attached to a remote memory pool.
type Platform struct {
	engine *simtime.Engine
	cfg    Config
	pool   *rmem.Pool
	pol    policy.Policy
	rng    *rand.Rand

	fns     map[string]*Function
	fnOrder []string

	// mem is the node's memory ledger. A container's own residency is
	// derived from its Space (see Container.localBytes), and every remote
	// page holds one swap slot.
	mem        cgroup.Ledger
	liveTW     *metrics.TimeWeighted
	governor   *rmem.Governor
	tel        telemetry.Hub
	containers int // ever created
	liveTotal  int
	evicted    int
	// offPieces is the OffloadPages piece scratch (see cutSelections).
	// Containers on one platform run on one engine, one call at a time, so
	// they share it.
	offPieces []offloadPiece
}

// New creates a platform over engine with the given configuration and
// offloading policy, with a dedicated memory pool.
func New(engine *simtime.Engine, cfg Config, pol policy.Policy) *Platform {
	return NewWithPool(engine, cfg, pol, rmem.NewPool(cfg.Pool))
}

// NewWithPool creates a platform that offloads to an externally owned pool —
// the rack-level deployment of §9, where ~10 compute nodes share one memory
// node.
func NewWithPool(engine *simtime.Engine, cfg Config, pol policy.Policy, pool *rmem.Pool) *Platform {
	c := cfg.withDefaults()
	p := &Platform{
		engine:   engine,
		cfg:      c,
		pool:     pool,
		pol:      pol,
		rng:      lazyrand.New(c.Seed),
		fns:      make(map[string]*Function),
		mem:      cgroup.NewLedger(engine.Now()),
		liveTW:   metrics.NewTimeWeighted(engine.Now(), 0),
		governor: rmem.NewGovernor(pool, 0.7),
	}
	node := c.NodeID
	if node == "" {
		node = "n0"
	}
	p.tel = c.Telemetry.Attach(node)
	p.armTimeline(pool.Instrument(p.tel))
	return p
}

// Pool returns the attached remote memory pool.
func (p *Platform) Pool() *rmem.Pool { return p.pool }

// Config returns the effective configuration.
func (p *Platform) Config() Config { return p.cfg }

// Register adds a function backed by the given profile. Registering the same
// ID twice panics: it would silently split statistics.
func (p *Platform) Register(id string, prof *workload.Profile) *Function {
	if _, dup := p.fns[id]; dup {
		panic("faas: duplicate function " + id)
	}
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	f := &Function{id: id, profile: prof}
	p.fns[id] = f
	p.fnOrder = append(p.fnOrder, id)
	return f
}

// Function returns the registered function with the given ID, or nil.
func (p *Platform) Function(id string) *Function { return p.fns[id] }

// Functions lists registered functions in registration order.
func (p *Platform) Functions() []*Function {
	out := make([]*Function, 0, len(p.fnOrder))
	for _, id := range p.fnOrder {
		out = append(out, p.fns[id])
	}
	return out
}

// Invoke fires one request for the function at the current virtual time.
// hooks carries a workflow stage's state-passing callbacks (nil for a plain
// request); resched marks a request the cluster routed away from a
// fault-degraded node, whose completion is counted separately so resilience
// experiments can prove no invocation was silently lost.
func (p *Platform) Invoke(fnID string, hooks *StageHooks, resched bool) {
	f := p.fns[fnID]
	if f == nil {
		panic("faas: invoke of unregistered function " + fnID)
	}
	p.dispatch(f, p.engine.Now(), resched, hooks)
}

// ScheduleInvocations schedules a whole invocation timeline for a function.
// It keeps one arrival pending at a time (simtime's Engine.Arrivals), so
// times is read while the run proceeds and must not change afterwards.
func (p *Platform) ScheduleInvocations(fnID string, times []simtime.Time) {
	f := p.fns[fnID]
	if f == nil {
		panic("faas: schedule for unregistered function " + fnID)
	}
	p.engine.Arrivals(times, func(e *simtime.Engine) { p.dispatch(f, e.Now(), false, nil) })
}

// ReplayTrace registers every function of tr under the given profile mapping
// and schedules all invocations. The mapping receives the trace-function
// index and returns the profile to use (experiments typically round-robin
// the 11 benchmarks).
func (p *Platform) ReplayTrace(tr *trace.Trace, pick func(i int, f *trace.Function) *workload.Profile) {
	for i, tf := range tr.Functions {
		prof := pick(i, tf)
		if prof == nil {
			continue
		}
		p.Register(tf.ID, prof)
		p.ScheduleInvocations(tf.ID, tf.Invocations)
	}
}

// dispatch routes one request: reuse the most recently idled container, or
// cold-start a new one. resched marks a request the cluster redirected away
// from a fault-degraded node; hooks carries workflow state-passing
// callbacks (nil for plain invocations).
func (p *Platform) dispatch(f *Function, arrival simtime.Time, resched bool, hooks *StageHooks) {
	now := p.engine.Now()
	if n := len(f.idle); n > 0 {
		c := f.idle[n-1]
		f.idle = f.idle[:n-1]
		if p.cfg.AdaptiveKeepAlive {
			f.reuse.Push(now - c.idleSince)
		}
		if sw, ok := c.pol.(policy.SemiWarmer); ok && sw.InSemiWarm() {
			f.stats.SemiWarmStarts++
			c.curKind = span.SemiWarm
		} else {
			f.stats.WarmStarts++
			c.curKind = span.Warm
		}
		p.tel.WarmStart(c.curKind == span.SemiWarm)
		c.curResched = resched
		c.curHooks = hooks
		c.wake()
		c.execute(arrival)
		return
	}
	f.stats.ColdStarts++
	c := p.launch(f)
	c.curKind = span.Cold
	c.curResched = resched
	c.curHooks = hooks
	// Cold start: the runtime loads, then the function initializes, then the
	// pending request executes.
	p.engine.After(f.profile.LaunchTime, func(e *simtime.Engine) {
		c.runtimeLoaded(e.Now())
		e.After(f.profile.InitTime, func(e *simtime.Engine) {
			c.initDone(e.Now())
			c.execute(arrival)
		})
	})
}

// account applies one container's residency change at now to the node
// ledger (see cgroup.Ledger.Apply) and syncs the node memory gauges.
func (p *Platform) account(now simtime.Time, local int64, remote ...int64) {
	p.mem.Apply(now, local, remote...)
	p.tel.NodeMemory(p.NodeLocalBytes(), p.NodeRemoteBytes())
}

// NodeLocalBytes returns the node's current local memory consumption across
// all containers.
func (p *Platform) NodeLocalBytes() int64 { return p.mem.LocalBytes() }

// NodeLocalAvg returns the time-weighted average node-local memory in bytes.
func (p *Platform) NodeLocalAvg() float64 { return p.mem.AvgLocalBytes(p.engine.Now()) }

// NodeLocalPeak returns the peak node-local memory in bytes.
func (p *Platform) NodeLocalPeak() int64 { return p.mem.PeakLocalBytes() }

// NodeRemoteBytes returns current remote residency across all containers.
func (p *Platform) NodeRemoteBytes() int64 { return p.mem.RemoteBytes() }

// NodeRemoteAvg returns the time-weighted average remote residency in bytes.
func (p *Platform) NodeRemoteAvg() float64 { return p.mem.AvgRemoteBytes(p.engine.Now()) }

// LiveContainers returns the number of containers currently alive on the
// node.
func (p *Platform) LiveContainers() int { return p.liveTotal }

// LiveContainersAvg returns the time-weighted average number of live
// containers — the denominator of the per-container density accounting
// (§8.6).
func (p *Platform) LiveContainersAvg() float64 { return p.liveTW.Average(p.engine.Now()) }

// ContainersCreated returns how many containers were ever launched.
func (p *Platform) ContainersCreated() int { return p.containers }

// EvictedContainers counts idle containers force-recycled to keep the node
// within its memory limit.
func (p *Platform) EvictedContainers() int { return p.evicted }

// enforceMemoryLimit evicts longest-idle containers until the node fits its
// DRAM limit. Busy containers are never evicted; if everything is busy the
// node runs over-committed, as a real node would swap or OOM-throttle.
func (p *Platform) enforceMemoryLimit(now simtime.Time) {
	limit := p.cfg.NodeMemoryLimit
	if limit <= 0 {
		return
	}
	for p.NodeLocalBytes() > limit {
		var victim *Container
		for _, f := range p.Functions() {
			for _, c := range f.idle {
				if victim == nil || c.idleSince < victim.idleSince {
					victim = c
				}
			}
		}
		if victim == nil {
			return // nothing idle to reclaim
		}
		p.evicted++
		p.tel.Evict(now, victim.id, victim.fn.id, victim.space.LocalBytes())
		victim.recycle(0)
	}
}

func (p *Platform) addLive(now simtime.Time, delta int) {
	p.liveTW.Add(now, float64(delta))
}

// AggregateStats sums request statistics across every function on the node.
type AggregateStats struct {
	// Requests, ColdStarts, WarmStarts, SemiWarmStarts count request paths.
	Requests, ColdStarts, WarmStarts, SemiWarmStarts int
	// FaultPages counts remote page faults.
	FaultPages int64
	// WorstP95 is the highest per-function P95 latency in seconds.
	WorstP95 float64
}

// RecoveryStats counts the fault-recovery machinery's outcomes, per
// function (FunctionStats) or summed across a node (Platform.Recovery). All
// fields are zero on a run without an injected fault plan, except the
// DoneNormal count.
type RecoveryStats struct {
	// FetchRetries counts backoff retries of failed page fetches.
	FetchRetries int64 `json:"fetch_retries"`
	// FetchTimeouts counts fetches abandoned after retries/timeout.
	FetchTimeouts int64 `json:"fetch_timeouts"`
	// FallbackPages counts pages served from the local swap copy.
	FallbackPages int64 `json:"fallback_pages"`
	// ColdReinits counts containers cold re-initialized after a timeout.
	ColdReinits int `json:"cold_reinits"`
	// DoneNormal, DoneRescheduled and DoneReinit classify completed
	// requests by recovery path: untouched by faults, routed away from a
	// degraded node by the cluster, or replayed through a cold re-init.
	// They sum to the completed request count.
	DoneNormal      int `json:"done_normal"`
	DoneRescheduled int `json:"done_rescheduled"`
	DoneReinit      int `json:"done_reinit"`
}

// Add accumulates other into r (cluster-level summing).
func (r *RecoveryStats) Add(other RecoveryStats) {
	r.FetchRetries += other.FetchRetries
	r.FetchTimeouts += other.FetchTimeouts
	r.FallbackPages += other.FallbackPages
	r.ColdReinits += other.ColdReinits
	r.DoneNormal += other.DoneNormal
	r.DoneRescheduled += other.DoneRescheduled
	r.DoneReinit += other.DoneReinit
}

// Recovery sums the fault-recovery statistics across every function.
func (p *Platform) Recovery() RecoveryStats {
	var r RecoveryStats
	for _, f := range p.Functions() {
		r.Add(f.stats.RecoveryStats)
	}
	return r
}

// Aggregate sums per-function statistics across the node.
func (p *Platform) Aggregate() AggregateStats {
	var a AggregateStats
	for _, f := range p.Functions() {
		st := f.Stats()
		a.Requests += st.Requests
		a.ColdStarts += st.ColdStarts
		a.WarmStarts += st.WarmStarts
		a.SemiWarmStarts += st.SemiWarmStarts
		a.FaultPages += st.FaultPages
		if p95 := st.Latency.P95(); p95 > a.WorstP95 {
			a.WorstP95 = p95
		}
	}
	return a
}
