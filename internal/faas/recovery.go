package faas

import (
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// This file is the container side of the fault-recovery state machine. It
// is only entered when the pool has a fault plan injected
// (Pool.FaultsPlanned); without one, Container.execute never calls into it.
//
// The request flow under a fault plan:
//
//	countSpans (pure pre-count of the remote set)
//	  → Pool.FetchRetry (bounded backoff against the plan)
//	      success → execute's touchSpans walk + normal fault accounting
//	      timeout → recoverFetch:
//	          swap fallback enabled → serve pages from the local copy
//	          otherwise            → recycle + cold re-init, replay request
//
// The pre-count exists because touchSpans mutates page state (Remote→Hot) as
// it walks; fetching only after a successful FetchRetry keeps a timed-out
// request's container consistent for the fallback and re-init paths. It is
// the same run arithmetic as touchRange (recallRemote), run on a Platform
// scratch copy of the container's page states instead of the states
// themselves.

// countSpans is touchSpans's fault arithmetic without the touch: it walks
// the same byte spans over sp, a scratch copy of the container's page
// states, and counts the demand faults and readahead pulls the walk would
// perform. recallRemote moves the pages it would recall to Hot in the copy,
// so revisits within one request — across spans and across calls on one
// copy — count exactly like the mutating walk.
func (c *Container) countSpans(sp *pagemem.Space, seg pagemem.Range, spans []workload.Span) (faults, readahead int) {
	window := c.p.swap.Readahead()
	for _, s := range spans {
		r, ok := spanPages(sp, seg, s)
		if !ok {
			continue
		}
		f, ra := recallRemote(sp, seg, r, window)
		faults += f
		readahead += ra
	}
	return faults, readahead
}

// fetchPlanned pre-counts the request's remote set and fetches it through
// Pool.FetchRetry. It returns the fetch's stall and the pre-counted demand
// faults per class and readahead pages, which execute's walk must
// reproduce; ok is false when the fetch timed out and recoverFetch has taken
// the request over.
func (c *Container) fetchPlanned() (stall rmem.FaultStall, faults rmem.ClassCounts, readahead int, ok bool) {
	sp := &c.p.precount
	sp.CopyStates(c.space)
	rf, rra := c.countSpans(sp, c.runtimeRange, c.touches.Runtime)
	inf, ira := c.countSpans(sp, c.initRange, c.touches.Init)
	faults[memnode.ClassRuntime] = rf
	faults[memnode.ClassInit] = inf
	readahead = rra + ira
	if rf+inf+readahead == 0 {
		return stall, faults, 0, true
	}
	stall, err := c.p.pool.FetchRetry(c.p.engine.Now(), c.owner, c.fn.id, faults, int64(c.space.PageSize()), c.p.cfg.FetchTimeout)
	if err != nil {
		c.recoverFetch(stall)
		return stall, faults, readahead, false
	}
	c.fn.stats.FetchRetries += int64(stall.Retries)
	return stall, faults, readahead, true
}

// recoverFetch handles a fetch that timed out against an unhealthy pool:
// either serve the remote set from the local write-through swap copy, or
// discard the container and replay the request through a cold re-init.
// stall carries the backoff already spent (stall.Backoff) — wall time the
// request has lost either way.
func (c *Container) recoverFetch(stall rmem.FaultStall) {
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
		runtimeFaults, runtimeRA := c.touchSpans(c.runtimeRange, c.touches.Runtime)
		initFaults, initRA := c.touchSpans(c.initRange, c.touches.Init)
		faults := runtimeFaults + initFaults
		readahead := runtimeRA + initRA
		pages := faults + readahead
		fbLat := c.p.swap.FallbackRead(pages)
		var all rmem.ClassCounts
		all[memnode.ClassRuntime] = runtimeFaults + runtimeRA
		all[memnode.ClassInit] = initFaults + initRA
		c.p.pool.RecallLocal(now, c.owner, c.fn.id, all, pageBytes)
		recalled := int64(pages) * pageBytes
		c.p.account(now, recalled, -recalled)
		c.p.enforceMemoryLimit(now)
		c.fn.stats.FaultPages += int64(faults)
		c.fn.stats.RuntimeFaultPages += int64(runtimeFaults)
		c.fn.stats.InitFaultPages += int64(initFaults)
		c.fn.stats.FallbackPages += int64(pages)
		c.p.tel.LocalFallback(now, stall.Backoff+fbLat, c.id, c.fn.id, faults, pages)
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
		e.After(latency, c.finish)
		return
	}

	// No local copy: the pages are unreachable. Discard the container and
	// cold re-initialize — the fresh container has everything local, and
	// offload stays paused while the link is unhealthy, so the replayed
	// request cannot re-enter this path for the same outage.
	f := c.fn
	arrival := c.arrival
	resched := c.curResched
	hooks := c.curHooks
	waited := stall.Backoff
	f.stats.ColdReinits++
	c.p.tel.ColdReinit(now, waited, c.id, c.fn.id, stall.Retries)
	c.recycle()

	relaunch := func(e *simtime.Engine) {
		f.stats.ColdStarts++
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
