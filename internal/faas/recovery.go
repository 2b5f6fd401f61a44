package faas

import (
	"time"

	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// This file is the container side of the fault-recovery state machine.
// Container.execute walks a request's spans once and fetches the pages the
// walk faulted through Pool.FetchRetry, which is the plain fault batch when
// no fault plan is armed and backs off against the plan when one is:
//
//	touchSpans walk (moves the faulted pages to Hot, counts them)
//	  → Pool.FetchRetry
//	      success → execute's fault accounting
//	      timeout → swap fallback enabled → serveLocal, then the same accounting
//	                otherwise            → reinit: recycle + cold re-init, replay request
//
// Both recoveries act on the counts of that one walk: the fallback serves
// exactly the walked pages from the local copy, and a re-init's recycle
// discards them as the remote bytes they still are.

// serveLocal serves a timed-out fetch's pages (demand faults fc and
// readahead ra) from the swap path's local write-through copy: they are
// read at the fallback read latency and leave the pool ledger without wire
// traffic. It returns stall, which carries the backoff already spent, with
// the fallback read added to its total.
func (c *Container) serveLocal(now simtime.Time, stall rmem.FaultStall, fc, ra rmem.ClassCounts) rmem.FaultStall {
	var all rmem.ClassCounts
	for cls := range all {
		all[cls] = fc[cls] + ra[cls]
	}
	pages := all.Total()
	fbLat := time.Duration(pages) * c.p.cfg.Swap.FallbackReadLatency
	c.p.pool.RecallLocal(now, c.owner, c.fn.id, all)
	c.fn.stats.FetchTimeouts++
	c.fn.stats.FallbackPages += int64(pages)
	c.curFallbackLat = fbLat
	stall.Total = stall.Backoff + fbLat
	return stall
}

// reinit handles a timed-out fetch with no local copy to fall back on: the
// pages are unreachable, so the container is discarded and the request
// replayed through a cold re-init. unfetched is the bytes of the pages the
// walk faulted but the fetch never delivered, which recycle discards as
// remote. stall carries the backoff already spent (stall.Backoff): wall
// time the request has lost.
func (c *Container) reinit(stall rmem.FaultStall, unfetched int64) {
	e := c.p.engine
	now := e.Now()
	// The fresh container has everything local, and offload stays paused
	// while the link is unhealthy, so the replayed request cannot re-enter
	// this path for the same outage.
	f := c.fn
	arrival := c.arrival
	resched := c.curResched
	hooks := c.curHooks
	waited := stall.Backoff
	f.stats.FetchTimeouts++
	f.stats.ColdReinits++
	c.p.tel.ColdReinit(now, waited, c.id, c.fn.id, stall.Retries)
	c.recycle(unfetched)

	relaunch := func(e *simtime.Engine) {
		f.stats.ColdStarts++
		nc := c.p.launch(f)
		nc.curKind = span.Cold
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
