package faas

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

// This file is the container side of the fault-recovery state machine. It is
// only entered when the pool has a fault plan injected (Pool.FaultsPlanned);
// Container.execute dispatches here before touching any state, so the
// fault-free request path is untouched by this machinery.
//
// The request flow under a fault plan:
//
//	countSpans (pure pre-count of the remote set)
//	  → Pool.FetchRetry (bounded backoff against the plan)
//	      success → touchSpans replay + normal fault accounting
//	      timeout → recoverFetch:
//	          swap fallback enabled → serve pages from the local copy
//	          otherwise            → recycle + cold re-init, replay request
//
// The pre-count exists because touchSpans mutates page state (Remote→Hot) as
// it walks; fetching only after a successful FetchRetry keeps a timed-out
// request's container consistent for the fallback and re-init paths.

// countSpans is touchSpans without the mutation: it walks the same byte
// spans and counts the demand faults and readahead pulls the walk would
// perform. flipped carries pages the walk would have recalled already, so
// revisits within one request count exactly like the mutating walk.
func (c *Container) countSpans(seg pagemem.Range, spans []workload.Span, flipped map[pagemem.PageID]struct{}) (faults, readahead int) {
	ps := int64(c.space.PageSize())
	window := c.p.swap.Readahead()
	remote := func(id pagemem.PageID) bool {
		if _, ok := flipped[id]; ok {
			return false
		}
		return c.space.State(id) == pagemem.Remote
	}
	for _, sp := range spans {
		start := seg.Start + pagemem.PageID(sp.Start/ps)
		end := seg.Start + pagemem.PageID((sp.End+ps-1)/ps)
		if end > seg.End {
			end = seg.End
		}
		for id := start; id < end; id++ {
			if !remote(id) {
				continue
			}
			faults++
			flipped[id] = struct{}{}
			for ra := 0; ra < window; ra++ {
				next := id + 1 + pagemem.PageID(ra)
				if next >= seg.End || !remote(next) {
					break
				}
				readahead++
				flipped[next] = struct{}{}
			}
		}
	}
	return faults, readahead
}

// executeFaulty is Container.execute for a fault-injected pool. It mirrors
// the fault-free path exactly on success (same RNG draws, same accounting
// order) and diverts to recoverFetch when the fetch times out.
func (c *Container) executeFaulty(arrival simtime.Time) {
	e := c.p.engine
	now := e.Now()
	c.started = now
	prof := c.fn.profile

	c.space.ReuseRange(c.execRange)
	execBytes := c.space.BytesOf(c.execRange.Len())
	c.cg.Charge(now, execBytes)
	c.p.enforceMemoryLimit(now)

	c.pol.RequestStart(e)

	touches := prof.RequestTouches(c.rng)
	flipped := make(map[pagemem.PageID]struct{})
	runtimeFaults, runtimeRA := c.countSpans(c.runtimeRange, touches.Runtime, flipped)
	initFaults, initRA := c.countSpans(c.initRange, touches.Init, flipped)
	faults := runtimeFaults + initFaults
	readahead := runtimeRA + initRA

	var faultLat time.Duration
	var stall rmem.FaultStall
	if faults+readahead > 0 {
		pageBytes := int64(c.space.PageSize())
		var fc rmem.ClassCounts
		fc[memnode.ClassRuntime] = runtimeFaults
		fc[memnode.ClassInit] = initFaults
		var err error
		stall, err = c.p.pool.FetchRetry(now, c.owner, c.fn.id, fc, pageBytes, c.p.cfg.FetchTimeout)
		if err != nil {
			c.recoverFetch(arrival, touches, stall)
			return
		}
		c.fn.stats.FetchRetries += int64(stall.Retries)

		// Fetch succeeded: replay the walk with mutation. The replay must
		// reproduce the pre-count — anything else means the fetch was paid
		// for the wrong page set.
		mrf, mrra := c.touchSpans(c.runtimeRange, touches.Runtime)
		mif, mira := c.touchSpans(c.initRange, touches.Init)
		if mrf != runtimeFaults || mif != initFaults || mrra+mira != readahead {
			panic(fmt.Sprintf("faas: fault pre-count (%d/%d faults, %d ra) diverged from replay (%d/%d, %d)",
				runtimeFaults, initFaults, readahead, mrf, mif, mrra+mira))
		}
		c.touchSpans(c.execRange, []workload.Span{{Start: 0, End: execBytes}})

		faultLat = stall.Total
		if readahead > 0 {
			var ra rmem.ClassCounts
			ra[memnode.ClassRuntime] = runtimeRA
			ra[memnode.ClassInit] = initRA
			c.p.pool.RecallDescribed(now, c.owner, c.fn.id, ra, pageBytes)
			c.p.swap.NoteClusterRead(readahead)
		}
		recalled := int64(faults+readahead) * pageBytes
		c.cg.Recall(now, recalled)
		c.p.syncMemGauges()
		c.p.enforceMemoryLimit(now)
		c.p.swap.Release(faults + readahead)
		c.fn.stats.FaultPages += int64(faults)
		c.p.met.faultPages.Add(int64(faults))
		c.p.met.readaheadPages.Add(int64(readahead))
		if runtimeFaults+runtimeRA > 0 {
			c.p.tel.Tracer.Record(telemetry.Event{
				At: now, Dur: faultLat, Kind: telemetry.KindPageFault,
				Actor: c.id, Fn: c.fn.id, Stage: telemetry.StageRuntime,
				Value: int64(runtimeFaults), Aux: int64(runtimeRA),
			})
		}
		if initFaults+initRA > 0 {
			c.p.tel.Tracer.Record(telemetry.Event{
				At: now, Dur: faultLat, Kind: telemetry.KindPageFault,
				Actor: c.id, Fn: c.fn.id, Stage: telemetry.StageInit,
				Value: int64(initFaults), Aux: int64(initRA),
			})
		}
	} else {
		// Nothing remote: walk with mutation straight away (promotions and
		// accessed bits still happen), no pool interaction.
		c.touchSpans(c.runtimeRange, touches.Runtime)
		c.touchSpans(c.initRange, touches.Init)
		c.touchSpans(c.execRange, []workload.Span{{Start: 0, End: execBytes}})
	}
	c.fn.stats.RuntimeFaultPages += int64(runtimeFaults)
	c.fn.stats.InitFaultPages += int64(initFaults)

	c.curFaults = faults
	c.curRA = readahead
	c.curStall = faultLat
	c.curQueueing = stall.Queueing
	c.curBacklogBytes = stall.BacklogBytes
	// += rather than =: a re-init replay carries the original request's
	// backoff on the fresh container, and finishRequest resets it.
	c.curRetryWait += stall.Backoff
	c.curFallbackLat = 0
	stateLat := c.priceStateHooks(now)
	latency := prof.ExecTime + faultLat + stateLat
	if faultLat > 0 {
		c.psi.AddStall(now+simtime.Time(latency), faultLat)
	}

	e.After(latency, func(e *simtime.Engine) {
		c.finishRequest(arrival)
	})
}

// recoverFetch handles a fetch that timed out against an unhealthy pool:
// either serve the remote set from the local write-through swap copy, or
// discard the container and replay the request through a cold re-init.
// stall carries the backoff already spent (stall.Backoff) — wall time the
// request has lost either way.
func (c *Container) recoverFetch(arrival simtime.Time, touches workload.Touches, stall rmem.FaultStall) {
	e := c.p.engine
	now := e.Now()
	c.fn.stats.FetchRetries += int64(stall.Retries)
	c.fn.stats.FetchTimeouts++

	if c.p.swap.FallbackEnabled() {
		// Dual-backend swap: every offloaded page also has a local disk
		// copy, so the walk can proceed — faults are served locally at the
		// fallback read latency and the pool ledger is released without
		// wire traffic.
		pageBytes := int64(c.space.PageSize())
		runtimeFaults, runtimeRA := c.touchSpans(c.runtimeRange, touches.Runtime)
		initFaults, initRA := c.touchSpans(c.initRange, touches.Init)
		execBytes := c.space.BytesOf(c.execRange.Len())
		c.touchSpans(c.execRange, []workload.Span{{Start: 0, End: execBytes}})
		faults := runtimeFaults + initFaults
		readahead := runtimeRA + initRA
		pages := faults + readahead
		fbLat := c.p.swap.FallbackRead(pages)
		var all rmem.ClassCounts
		all[memnode.ClassRuntime] = runtimeFaults + runtimeRA
		all[memnode.ClassInit] = initFaults + initRA
		c.p.pool.RecallLocal(now, c.owner, c.fn.id, all, pageBytes)
		c.cg.Recall(now, int64(pages)*pageBytes)
		c.p.syncMemGauges()
		c.p.enforceMemoryLimit(now)
		c.p.swap.Release(pages)
		c.fn.stats.FaultPages += int64(faults)
		c.fn.stats.RuntimeFaultPages += int64(runtimeFaults)
		c.fn.stats.InitFaultPages += int64(initFaults)
		c.fn.stats.FallbackPages += int64(pages)
		c.p.met.faultPages.Add(int64(faults))
		c.p.met.fallbackPages.Add(int64(pages))
		c.p.tel.Tracer.Record(telemetry.Event{
			At: now, Dur: stall.Backoff + fbLat, Kind: telemetry.KindLocalFallback,
			Actor: c.id, Fn: c.fn.id, Value: int64(pages),
		})
		if c.p.tel.Timeline.Enabled() {
			c.p.tel.Timeline.AddCounter(now, timeseries.SeriesFallbackPages,
				timeseries.Dims{Node: c.p.tlNode, Tenant: c.fn.id}, int64(pages))
		}
		c.curFaults = faults
		c.curRA = readahead
		c.curStall = stall.Backoff + fbLat
		c.curQueueing = 0
		c.curBacklogBytes = 0
		c.curRetryWait = stall.Backoff
		c.curFallbackLat = fbLat
		stateLat := c.priceStateHooks(now)
		latency := c.fn.profile.ExecTime + c.curStall + stateLat
		if c.curStall > 0 {
			c.psi.AddStall(now+simtime.Time(latency), c.curStall)
		}
		e.After(latency, func(e *simtime.Engine) {
			c.finishRequest(arrival)
		})
		return
	}

	// No local copy: the pages are unreachable. Discard the container and
	// cold re-initialize — the fresh container has everything local, and
	// offload stays paused while the link is unhealthy, so the replayed
	// request cannot re-enter this path for the same outage.
	f := c.fn
	resched := c.curResched
	hooks := c.curHooks
	waited := stall.Backoff
	f.stats.ColdReinits++
	c.p.met.coldReinits.Inc()
	c.p.tel.Tracer.Record(telemetry.Event{
		At: now, Dur: waited, Kind: telemetry.KindColdReinit,
		Actor: c.id, Fn: c.fn.id, Value: int64(stall.Retries),
	})
	if c.p.tel.Timeline.Enabled() {
		c.p.tel.Timeline.AddCounter(now, timeseries.SeriesColdReinits,
			timeseries.Dims{Node: c.p.tlNode, Tenant: c.fn.id}, 1)
	}
	c.recycle()

	relaunch := func(e *simtime.Engine) {
		f.stats.ColdStarts++
		c.p.met.coldStarts.Inc()
		nc := c.p.launch(f)
		nc.curKind = ColdStart
		nc.curResched = resched
		nc.curReinit = true
		nc.curRetryWait = waited
		// The replayed request keeps its workflow hooks: state passing is
		// priced on the execution that completes, exactly once.
		nc.curHooks = hooks
		e.After(f.profile.LaunchTime, func(e *simtime.Engine) {
			nc.runtimeLoaded(e.Now())
			e.After(f.profile.InitTime, func(e *simtime.Engine) {
				nc.initDone(e.Now())
				nc.execute(arrival)
			})
		})
	}
	if waited > 0 {
		e.After(waited, relaunch)
	} else {
		relaunch(e)
	}
}
