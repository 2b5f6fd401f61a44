package faas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/faasmem/faasmem/internal/cgroup"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/workload"
)

// Container is one serverless container instance. It implements policy.View.
type Container struct {
	id    string
	owner string // rack-unique ID for pool-side (memnode) accounting
	fn    *Function
	p     *Platform

	space *pagemem.Space
	psi   *cgroup.PSI
	pol   policy.ContainerPolicy
	rng   *rand.Rand

	// runtimeRange and initRange are the Runtime and Init Puckets: the pages
	// each segment's allocation returned, so a time barrier is just the end
	// of that allocation (pages allocated between two barriers are
	// contiguous by construction).
	runtimeRange pagemem.Range
	initRange    pagemem.Range
	// execPages is the exec segment's size. Its temporaries hold no page
	// state: a request in flight is charged their bytes (execCharge, zero
	// between requests), and completion uncharges them (paper §3.3); no
	// policy ever monitors them (§4).
	execPages  int
	execCharge int64

	requests  int
	idle      bool
	arrival   simtime.Time // current request's arrival, before any cold start
	started   simtime.Time // current request's execution start
	curKind   StartKind    // how the current request found this container
	curFaults int
	curRA     int // readahead pages recalled with the current faults
	curStall  time.Duration
	// curQueueing and curBacklogBytes decompose curStall for attribution:
	// the link-congestion share and the bulk bytes queued when faulting.
	curQueueing     time.Duration
	curBacklogBytes int64
	// curRetryWait and curFallbackLat decompose recovery time inside
	// curStall: backoff spent retrying fetches, and local-swap read time
	// after a timeout. curResched marks a cluster-redirected request;
	// curReinit marks one replayed through a cold re-init.
	curRetryWait   time.Duration
	curFallbackLat time.Duration
	curResched     bool
	curReinit      bool
	// curHooks carries the current request's workflow state-passing
	// callbacks (nil outside workflows); curStateIn/curStateOut and their
	// byte counts record what the hooks priced, for span attribution.
	curHooks         *StageHooks
	curStateIn       time.Duration
	curStateOut      time.Duration
	curStateInBytes  int64
	curStateOutBytes int64
	idleSince        simtime.Time
	launched         simtime.Time
	loadedAt         simtime.Time // when the runtime finished loading
	recycleEv        simtime.Handle
	dead             bool
	// touches holds the current request's spans, refilled by every execute.
	touches workload.Touches
	// finish and expire are the request-completion and keep-alive-expiry
	// events, built once at launch so a warm request allocates no closure.
	finish, expire simtime.Func
}

// launch creates a container; memory arrives as lifecycle stages complete.
func (p *Platform) launch(f *Function) *Container {
	p.containers++
	p.liveTotal++
	f.live++
	now := p.engine.Now()
	p.addLive(now, 1)
	id := fmt.Sprintf("%s#%d", f.id, p.containers)
	c := &Container{
		id:       id,
		fn:       f,
		p:        p,
		space:    pagemem.NewSpace(p.cfg.PageSize),
		psi:      cgroup.NewPSI(now),
		rng:      lazyrand.New(p.rng.Int63()),
		launched: now,
	}
	c.owner = c.id
	if p.cfg.NodeID != "" {
		c.owner = p.cfg.NodeID + "/" + c.id
	}
	// The runtime and init sizes are known from the profile: size the page
	// state once for both instead of growing it per segment.
	sp, prof := c.space, f.profile
	sp.Reserve(sp.PagesOf(prof.RuntimeBytes) + sp.PagesOf(prof.InitBytes))
	c.execPages = sp.PagesOf(prof.ExecBytes)
	c.finish = func(*simtime.Engine) { c.finishRequest() }
	c.expire = func(*simtime.Engine) { c.recycle() }
	p.tel.Launch(now, c.id, f.id, p.liveTotal)
	c.pol = p.pol.Attach(p.engine, c)
	return c
}

// runtimeLoaded materializes the runtime segment and inserts the
// Runtime-Init time barrier.
func (c *Container) runtimeLoaded(now simtime.Time) {
	c.runtimeRange = c.space.AllocBytes(pagemem.SegRuntime, c.fn.profile.RuntimeBytes)
	c.p.account(now, c.space.BytesOf(c.runtimeRange.Len()))
	c.loadedAt = now
	c.p.tel.Barrier(telemetry.StageRuntime, c.launched, now, c.id, c.fn.id, c.runtimeRange.Len())
	c.p.enforceMemoryLimit(now)
	c.pol.RuntimeLoaded(c.p.engine)
}

// initDone materializes the init segment and inserts the Init-Execution
// time barrier.
func (c *Container) initDone(now simtime.Time) {
	c.initRange = c.space.AllocBytes(pagemem.SegInit, c.fn.profile.InitBytes)
	c.p.account(now, c.space.BytesOf(c.initRange.Len()))
	c.p.tel.Barrier(telemetry.StageInit, c.loadedAt, now, c.id, c.fn.id, c.initRange.Len())
	c.p.enforceMemoryLimit(now)
	c.pol.InitDone(c.p.engine)
}

// wake removes the container from keep-alive when a request arrives.
func (c *Container) wake() {
	c.idle = false
	c.p.engine.Cancel(c.recycleEv)
	c.recycleEv = simtime.Handle{}
}

// execute runs one request to completion. arrival is when the request
// entered the system (before any cold-start work), so recorded end-to-end
// latency includes cold-start time. When the pool has a fault plan armed the
// remote set is pre-counted and fetched through the retry machinery before
// the walk (see recovery.go); a fetch that times out diverts to
// recoverFetch.
func (c *Container) execute(arrival simtime.Time) {
	e := c.p.engine
	now := e.Now()
	c.arrival = arrival
	c.started = now
	prof := c.fn.profile

	// Exec-segment temporaries come to life.
	c.execCharge = c.space.BytesOf(c.execPages)
	c.p.account(now, c.execCharge)
	c.p.enforceMemoryLimit(now)

	c.pol.RequestStart(e)

	// Replay the request's page accesses.
	prof.RequestTouches(c.rng, &c.touches)
	planned := c.p.pool.FaultsPlanned()
	var stall rmem.FaultStall
	var preFaults rmem.ClassCounts
	var preRA int
	if planned {
		var ok bool
		if stall, preFaults, preRA, ok = c.fetchPlanned(); !ok {
			return
		}
	}
	runtimeFaults, runtimeRA := c.touchSpans(c.runtimeRange, c.touches.Runtime)
	initFaults, initRA := c.touchSpans(c.initRange, c.touches.Init)
	faults := runtimeFaults + initFaults
	readahead := runtimeRA + initRA
	c.fn.stats.RuntimeFaultPages += int64(runtimeFaults)
	c.fn.stats.InitFaultPages += int64(initFaults)

	// Remote faults stall the request and recall pages to local memory;
	// readahead pages ride along on the cluster reads without adding fault
	// rounds to the request's critical path.
	var faultLat time.Duration
	if faults+readahead > 0 {
		pageBytes := int64(c.space.PageSize())
		var fc, ra rmem.ClassCounts
		fc[memnode.ClassRuntime] = runtimeFaults
		fc[memnode.ClassInit] = initFaults
		ra[memnode.ClassRuntime] = runtimeRA
		ra[memnode.ClassInit] = initRA
		if !planned {
			stall = c.p.pool.FaultBatchOwner(now, c.owner, c.fn.id, fc, pageBytes)
		} else if fc != preFaults || readahead != preRA {
			// The fetch was paid for the pre-counted set; a walk that
			// diverges from it means the wrong pages were priced.
			panic(fmt.Sprintf("faas: fault pre-count (%v faults, %d readahead) diverged from the walk (%v, %d)",
				preFaults, preRA, fc, readahead))
		}
		faultLat = stall.Total
		if readahead > 0 {
			c.p.pool.RecallDescribed(now, c.owner, c.fn.id, ra, pageBytes)
			c.p.swap.NoteClusterRead(readahead)
		}
		recalled := int64(faults+readahead) * pageBytes
		c.p.account(now, recalled, -recalled)
		c.p.enforceMemoryLimit(now)
		c.fn.stats.FaultPages += int64(faults)
		c.p.tel.FaultStall(now, faultLat, c.id, c.fn.id, fc, ra)
	}

	if wb := c.priceRuntimeWrites(now); wb.Total > 0 {
		// A CoW unmerge is a remote-memory stall (master fetch plus private
		// writeback): fold it into the fault stall so latency, spans, PSI,
		// and attribution account it the same way.
		faultLat += wb.Total
		stall.Queueing += wb.Queueing
	}

	c.curFaults = faults
	c.curRA = readahead
	c.curStall = faultLat
	c.curQueueing = stall.Queueing
	c.curBacklogBytes = stall.BacklogBytes
	// += rather than =: a re-init replay carries the original request's
	// backoff on the fresh container, and finishRequest resets it.
	c.curRetryWait += stall.Backoff
	stateLat := c.priceStateHooks(now)
	latency := prof.ExecTime + faultLat + stateLat
	if faultLat > 0 {
		// PSI accounts the stall at its completion time, like the kernel.
		c.psi.AddStall(now+simtime.Time(latency), faultLat)
	}

	e.After(latency, c.finish)
}

// priceRuntimeWrites models the request's write-hot runtime accesses: the
// profile's RuntimeWriteRatio fraction of the still-offloaded runtime
// segment is dirtied, breaking any pool-side merge-domain sharing
// copy-on-write (rmem.WriteBreakOwner). Privatized pages stay remote under
// a private copy; pages the node could not re-home are recalled into local
// memory like faulted pages. While the remote path is down the write is
// treated as locally buffered and costs nothing — a later request breaks
// the share. Zero ratio (the default) makes this a no-op.
func (c *Container) priceRuntimeWrites(now simtime.Time) rmem.FaultStall {
	ratio := c.fn.profile.RuntimeWriteRatio
	if ratio <= 0 {
		return rmem.FaultStall{}
	}
	held := c.p.pool.OwnerClassPages(c.owner, c.fn.id, memnode.ClassRuntime)
	if held <= 0 {
		return rmem.FaultStall{}
	}
	dirty := int(math.Ceil(ratio * float64(held)))
	if dirty > held {
		dirty = held
	}
	pageBytes := int64(c.space.PageSize())
	out, err := c.p.pool.WriteBreakOwner(now, c.owner, c.fn.id, memnode.ClassRuntime, dirty, pageBytes)
	if err != nil || out.Pages+out.Recalled == 0 {
		return rmem.FaultStall{}
	}
	if out.Recalled > 0 {
		// The node had no room for the private copy: those pages come home.
		// Flip that many remote runtime pages local (they were just
		// written, so they land hot), which frees their swap slots.
		r, _ := c.space.Prefix(c.runtimeRange, pagemem.Remote, out.Recalled)
		c.space.MoveRange(r, pagemem.Remote, pagemem.Hot)
		recalled := int64(out.Recalled) * pageBytes
		c.p.account(now, recalled, -recalled)
		c.p.enforceMemoryLimit(now)
	}
	c.fn.stats.WriteBreakPages += int64(out.Pages)
	c.fn.stats.WriteBreakRecallPages += int64(out.Recalled)
	c.p.tel.WriteBreak(now, out.Stall.Total, c.id, c.fn.id, out.Pages, out.Recalled)
	return out.Stall
}

// priceStateHooks runs the request's workflow state-passing hooks at
// execution start and returns the critical-path latency they add. State-out
// is priced here too — the stage streams its output region while it
// computes, so the produce cost overlaps execution and downstream stages
// become ready at this stage's completion.
func (c *Container) priceStateHooks(now simtime.Time) time.Duration {
	h := c.curHooks
	if h == nil {
		return 0
	}
	if h.StateIn != nil {
		c.curStateIn, c.curStateInBytes = h.StateIn(now)
	}
	if h.StateOut != nil {
		c.curStateOut, c.curStateOutBytes = h.StateOut(now)
	}
	return c.curStateIn + c.curStateOut
}

// touchSpans touches the pages covered by byte spans relative to seg's
// start, promoting re-accessed pages to the hot pool and counting remote
// faults. Pages recalled by a fault also land in the hot pool (paper §4:
// "FaaSMem fetches the remote pages once accessed", recalls go to the hot
// page pool). With swap readahead enabled, each fault also pulls in up to
// the readahead window of virtually-contiguous remote neighbours, which are
// recalled (counted separately) without their own fault rounds.
func (c *Container) touchSpans(seg pagemem.Range, spans []workload.Span) (faults, readahead int) {
	window := c.p.swap.Readahead()
	for _, s := range spans {
		r, ok := spanPages(c.space, seg, s)
		if !ok {
			continue
		}
		f, ra := c.touchRange(seg, r.Start, r.End, window)
		faults += f
		readahead += ra
	}
	return faults, readahead
}

// spanPages returns the pages of seg that byte span s, relative to seg's
// start, covers, clipped to seg.End; ok is false when none are left.
func spanPages(sp *pagemem.Space, seg pagemem.Range, s workload.Span) (r pagemem.Range, ok bool) {
	ps := int64(sp.PageSize())
	r = pagemem.Range{
		Start: seg.Start + pagemem.PageID(s.Start/ps),
		End:   seg.Start + pagemem.PageID((s.End+ps-1)/ps),
	}
	if r.End > seg.End {
		r.End = seg.End
	}
	return r, r.End > r.Start
}

// touchRange touches pages [start, end) exactly as a sequential per-page
// walk would: Hot pages only need their access bit, which TouchRange sets in
// bulk; Inactive pages move to Hot in one range move; Remote pages fault in
// run by run (recallRemote).
func (c *Container) touchRange(seg pagemem.Range, start, end pagemem.PageID, window int) (faults, readahead int) {
	sp := c.space
	r := pagemem.Range{Start: start, End: end}
	sp.TouchRange(r)
	sp.MoveRange(r, pagemem.Inactive, pagemem.Hot)
	return recallRemote(sp, seg, r, window)
}

// recallRemote resolves the Remote pages of r in page order and moves the
// pages it recalls to Hot: each page not already recalled faults, and its
// fault recalls up to window contiguous Remote successors below seg.End as
// readahead. It serves both the request walk (on the container's Space)
// and the fault pre-count (on a scratch copy of it).
//
// Readahead never leaves a Remote run, so each run is resolved on its own:
// from the run's first touched page, every (window+1)-th page faults until
// the touched part of the run is covered. Every Remote page of r is thus
// recalled, plus the last fault's readahead past r.End, so one MoveRange
// recalls the lot.
func recallRemote(sp *pagemem.Space, seg, r pagemem.Range, window int) (faults, readahead int) {
	end := r.End
	for it := sp.Runs(r, pagemem.Remote); it.Next(); {
		first := max(it.Run.Start, r.Start)
		f := (int(min(it.Run.End, r.End)-first) + window) / (window + 1)
		last := min(first+pagemem.PageID(f*(window+1)), it.Run.End, seg.End)
		faults += f
		readahead += int(last-first) - f
		end = max(end, last)
	}
	if faults > 0 {
		sp.MoveRange(pagemem.Range{Start: r.Start, End: end}, pagemem.Remote, pagemem.Hot)
	}
	return faults, readahead
}

// finishRequest frees the exec segment, records stats, runs policy hooks
// and puts the container into keep-alive.
func (c *Container) finishRequest() {
	e := c.p.engine
	now := e.Now()
	arrival := c.arrival

	// Exec temporaries are freed immediately on completion (paper §3.3).
	c.p.account(now, -c.execCharge)
	c.execCharge = 0

	c.requests++
	c.fn.stats.Requests++
	// Completion classification, precedence reinit > rescheduled > normal: a
	// rescheduled request that then needed a re-init counts once, as re-init.
	switch {
	case c.curReinit:
		c.fn.stats.DoneReinit++
	case c.curResched:
		c.fn.stats.DoneRescheduled++
	default:
		c.fn.stats.DoneNormal++
	}
	c.fn.stats.Latency.AddDuration(now - arrival)
	c.fn.stats.ExecLatency.AddDuration(now - c.started)
	c.p.reqLog.Push(RequestRecord{
		Function:    c.fn.id,
		Container:   c.id,
		Kind:        c.curKind,
		Arrival:     arrival,
		Start:       c.started,
		Latency:     now - arrival,
		ExecLatency: now - c.started,
		FaultPages:  c.curFaults,
		StallTime:   c.curStall,
	})
	c.p.tel.RequestDone(telemetry.Request{
		Container: c.id, Fn: c.fn.id, Kind: span.StartKind(c.curKind),
		Arrival: arrival, Start: c.started, End: now, Faults: c.curFaults,
	}, func() span.Invocation { return c.buildInvocation(arrival, now) })
	// Recovery attribution is per-request; clear it before any queued
	// follow-on request reuses this container.
	c.curReinit, c.curResched = false, false
	c.curRetryWait, c.curFallbackLat = 0, 0
	// The workflow Done hook fires once per completed request, then the
	// hooks clear before any queued follow-on request reuses the container.
	if h := c.curHooks; h != nil {
		c.curHooks = nil
		c.curStateIn, c.curStateOut = 0, 0
		c.curStateInBytes, c.curStateOutBytes = 0, 0
		if h.Done != nil {
			h.Done(e, now)
		}
	}

	c.pol.RequestEnd(e)

	// Serve queued work before idling: a congested function keeps its
	// containers busy back to back.
	if len(c.fn.queue) > 0 {
		q := c.fn.queue[0]
		c.fn.queue = c.fn.queue[1:]
		c.fn.stats.WarmStarts++
		c.p.tel.WarmStart(false)
		c.curKind = QueuedStart
		c.curHooks = q.hooks
		c.execute(q.at)
		return
	}

	// Enter keep-alive.
	c.idle = true
	c.idleSince = now
	c.fn.idle = append(c.fn.idle, c)
	c.p.tel.Idle(now, c.id, c.fn.id)
	c.recycleEv = e.After(c.p.keepAliveFor(c.fn), c.expire)
	c.pol.Idle(e)

	// An over-committed node reclaims as soon as something becomes
	// reclaimable; the newly idle container itself may be the victim.
	c.p.enforceMemoryLimit(now)
}

// buildInvocation assembles the just-finished request's span tree. The
// phases tile the root exactly — cold starts get launch+init children,
// queued requests a queue child, and the exec span nests the remote-fault
// stall (labelled a restore on semi-warm reuse) with the link-congestion
// share as a backlog grandchild — so attribution's per-phase times sum to
// end-to-end latency in integer nanoseconds.
func (c *Container) buildInvocation(arrival, now simtime.Time) span.Invocation {
	root := span.Span{
		Phase: span.PhaseRequest,
		Start: arrival,
		Dur:   time.Duration(now - arrival),
	}
	switch c.curKind {
	case ColdStart:
		if c.curReinit && c.curRetryWait > 0 {
			// A cold re-init replay: the backoff burned before the relaunch
			// precedes the launch span (the fresh container has no remote
			// pages, so no stall span exists to nest it under).
			root.Children = append(root.Children, span.Span{
				Phase: span.PhaseRetry,
				Start: c.launched - simtime.Time(c.curRetryWait),
				Dur:   c.curRetryWait,
			})
		}
		root.Children = append(root.Children,
			span.Span{
				Phase: span.PhaseLaunch, Start: c.launched,
				Dur: time.Duration(c.loadedAt - c.launched),
			},
			span.Span{
				Phase: span.PhaseInit, Start: c.loadedAt,
				Dur: time.Duration(c.started - c.loadedAt),
			})
	case QueuedStart:
		root.Children = append(root.Children, span.Span{
			Phase: span.PhaseQueue, Start: arrival,
			Dur: time.Duration(c.started - arrival),
		})
	}
	exec := span.Span{
		Phase: span.PhaseExec, Start: c.started,
		Dur: time.Duration(now - c.started),
	}
	if c.curStall > 0 {
		// The batch faults at exec start in this model, so the stall leads
		// the exec span.
		phase := span.PhaseFaultStall
		if c.curKind == SemiWarmStart {
			phase = span.PhaseRestore
		}
		stall := span.Span{
			Phase: phase, Start: c.started, Dur: c.curStall,
			Pages: int64(c.curFaults + c.curRA),
		}
		if c.curRetryWait > 0 && c.curRetryWait <= c.curStall {
			// Retry backoff leads the stall: the fetch only issued (or the
			// fallback only engaged) once the wait was over.
			stall.Children = append(stall.Children, span.Span{
				Phase: span.PhaseRetry, Start: c.started, Dur: c.curRetryWait,
			})
		}
		if c.curFallbackLat > 0 {
			stall.Children = append(stall.Children, span.Span{
				Phase: span.PhaseFallback,
				Start: c.started + simtime.Time(c.curRetryWait),
				Dur:   c.curFallbackLat,
				Pages: int64(c.curFaults + c.curRA),
			})
		}
		if c.curQueueing > 0 {
			// Congestion delay surfaces after the pipelined fetches issue.
			stall.Children = append(stall.Children, span.Span{
				Phase: span.PhaseBacklog,
				Start: c.started + simtime.Time(c.curStall-c.curQueueing),
				Dur:   c.curQueueing,
				Pages: c.curBacklogBytes,
			})
		}
		exec.Children = append(exec.Children, stall)
	}
	if c.curStateIn > 0 {
		// State-in follows the fault stall: upstream regions map once the
		// container's own remote set is resolved.
		exec.Children = append(exec.Children, span.Span{
			Phase: span.PhaseStateIn,
			Start: c.started + simtime.Time(c.curStall),
			Dur:   c.curStateIn,
			Pages: c.curStateInBytes,
		})
	}
	if c.curStateOut > 0 {
		// State-out trails the exec span: the output region's transfer
		// completes with the stage (streamed during compute).
		exec.Children = append(exec.Children, span.Span{
			Phase: span.PhaseStateOut,
			Start: now - simtime.Time(c.curStateOut),
			Dur:   c.curStateOut,
			Pages: c.curStateOutBytes,
		})
	}
	root.Children = append(root.Children, exec)
	return span.Invocation{
		Function:  c.fn.id,
		Container: c.id,
		Kind:      span.StartKind(c.curKind),
		Root:      root,
	}
}

// recycle tears the container down at keep-alive expiry.
func (c *Container) recycle() {
	if c.dead {
		return
	}
	c.dead = true
	now := c.p.engine.Now()

	// Remove from the idle stack; slices.Delete zeroes the vacated slot, so
	// the stack's spare capacity does not keep the dead container reachable.
	if i := slices.Index(c.fn.idle, c); i >= 0 {
		c.fn.idle = slices.Delete(c.fn.idle, i, i+1)
	}
	// A cold re-init recycles mid-request, so the local bytes dropped
	// include the in-flight exec charge.
	remote := c.space.RemoteBytes()
	c.p.account(now, -c.localBytes(), -remote)
	c.p.pool.DiscardOwner(now, c.owner, c.fn.id, remote)

	c.p.addLive(now, -1)
	c.p.liveTotal--
	c.fn.live--
	c.p.tel.Recycle(now, c.id, c.fn.id, remote, c.p.liveTotal)
	c.pol.Recycle(c.p.engine)
}

// --- policy.View implementation ---

// ID implements policy.View.
func (c *Container) ID() string { return c.id }

// FunctionID implements policy.View.
func (c *Container) FunctionID() string { return c.fn.id }

// Profile implements policy.View.
func (c *Container) Profile() *workload.Profile { return c.fn.profile }

// Space implements policy.View.
func (c *Container) Space() *pagemem.Space { return c.space }

// RuntimeRange implements policy.View.
func (c *Container) RuntimeRange() pagemem.Range { return c.runtimeRange }

// InitRange implements policy.View.
func (c *Container) InitRange() pagemem.Range { return c.initRange }

// RequestsServed implements policy.View.
func (c *Container) RequestsServed() int { return c.requests }

// Idle implements policy.View.
func (c *Container) Idle() bool { return c.idle }

// StallFraction implements policy.View: the container's PSI memory-stall
// average over the short (~10 s) window — what TMO's feedback loop watches.
func (c *Container) StallFraction() float64 { return c.psi.Avg10(c.p.engine.Now()) }

// localBytes returns the container's local residency: its resident pages
// plus an in-flight request's exec charge.
func (c *Container) localBytes() int64 { return c.space.LocalBytes() + c.execCharge }

// MemoryBytes implements policy.View: the container's local plus remote
// bytes (the kernel's memory.current).
func (c *Container) MemoryBytes() int64 { return c.localBytes() + c.space.RemoteBytes() }

// OffloadScale implements policy.View: the node's bandwidth-governor factor.
func (c *Container) OffloadScale() float64 {
	return c.p.governor.Scale(c.p.engine.Now())
}

// Telemetry implements policy.View: the platform's attached hub.
func (c *Container) Telemetry() *telemetry.Hub { return &c.p.tel }

// IdleSince reports when the container last became idle (meaningful only
// while Idle() is true).
func (c *Container) IdleSince() simtime.Time { return c.idleSince }

// greedyDualPriority scores an idle container for EvictGreedyDual: higher is
// more worth keeping. Frequency is the container's served requests, cost is
// the cold start this node avoids by keeping it warm, size is its local
// footprint.
func (c *Container) greedyDualPriority() float64 {
	cost := (c.fn.profile.LaunchTime + c.fn.profile.InitTime).Seconds()
	size := float64(c.space.LocalBytes())
	if size <= 0 {
		size = 1
	}
	return float64(c.requests) * cost / size
}

// OffloadPages implements policy.View: it moves the selected local pages to
// the remote pool, at most max of them (max <= 0: no limit), clamped to what
// the link and swap device accept and admitted per lifecycle class by the
// pool, charging the node ledger and link bandwidth.
func (c *Container) OffloadPages(e *simtime.Engine, sels []pagemem.Selection, max int) int {
	if c.dead {
		return 0
	}
	if max <= 0 {
		max = math.MaxInt
	}
	pieces, total := c.cutSelections(sels, max)
	if total == 0 {
		return 0
	}
	now := e.Now()
	pageBytes := int64(c.space.PageSize())
	// The link caps how much offload work it accepts per call (covers both
	// pool capacity and the queued-backlog horizon), and the swap device
	// must have free slots; truncated pages stay local and later offload
	// attempts pick them up.
	if budget := int(c.p.pool.AcceptableBytes(now) / pageBytes); budget < total {
		total = budget
	}
	granted := c.p.swap.Grant(c.p.remotePages(), total)
	// Describe the first granted candidates by lifecycle class; the pool
	// (and its memory node, when attached) admits per class.
	var counts rmem.ClassCounts
	left := granted
	for _, pc := range pieces {
		k := min(pc.n, left)
		counts[pc.cls] += k
		left -= k
	}
	if granted == 0 {
		return 0
	}
	accepted, start, done, err := c.p.pool.OffloadDescribed(now, c.owner, c.fn.id, counts, pageBytes)
	if err != nil {
		// The capacity clamp above should prevent this (ErrPoolFull);
		// candidates stay local.
		return 0
	}
	// Node-rejected pages stay local and hold no swap slot.
	moved := c.movePieces(pieces, granted, accepted)
	if moved == 0 {
		return 0
	}
	bytes := int64(moved) * pageBytes
	c.p.account(now, -bytes, bytes)
	// The accepted per-class counts are the moved pages by lifecycle segment
	// (memnode.Class numbering matches telemetry.Stage), so every sink shows
	// which Pucket the savings came from.
	c.p.tel.OffloadBatch(now, start, done, c.id, c.fn.id, accepted, bytes)
	return moved
}

// offloadPiece is the part of one selection inside one lifecycle class: r is
// the shortest prefix of that part holding its n counted pages in state st.
type offloadPiece struct {
	r   pagemem.Range
	st  pagemem.State
	cls memnode.Class
	n   int
}

// cutSelections cuts each selection, in order, at the runtime and init
// range boundaries into at most five class pieces (pages outside both
// ranges are ClassOther) and counts each piece's pages with Prefix until
// limit are found. It returns the counted pieces, in platform scratch, and
// their total.
func (c *Container) cutSelections(sels []pagemem.Selection, limit int) ([]offloadPiece, int) {
	pieces, total := c.p.offPieces[:0], 0
	classes := [2]struct {
		r   pagemem.Range
		cls memnode.Class
	}{{c.runtimeRange, memnode.ClassRuntime}, {c.initRange, memnode.ClassInit}}
	if classes[1].r.Start < classes[0].r.Start {
		classes[0], classes[1] = classes[1], classes[0]
	}
	add := func(r pagemem.Range, st pagemem.State, cls memnode.Class) {
		if r.End <= r.Start || total == limit {
			return
		}
		if pr, k := c.space.Prefix(r, st, limit-total); k > 0 {
			pieces = append(pieces, offloadPiece{r: pr, st: st, cls: cls, n: k})
			total += k
		}
	}
	for _, sel := range sels {
		cur := sel.R.Start
		for _, cr := range classes {
			if cr.r.End <= cr.r.Start {
				continue
			}
			add(pagemem.Range{Start: cur, End: min(cr.r.Start, sel.R.End)}, sel.St, memnode.ClassOther)
			cur = max(cur, cr.r.Start)
			add(pagemem.Range{Start: cur, End: min(cr.r.End, sel.R.End)}, sel.St, cr.cls)
			cur = max(cur, cr.r.End)
		}
		add(pagemem.Range{Start: cur, End: sel.R.End}, sel.St, memnode.ClassOther)
	}
	c.p.offPieces = pieces
	return pieces, total
}

// movePieces moves to Remote, in piece order, the first granted counted
// pages, of which the first accepted[cls] of each lifecycle class, and
// returns how many moved: one Prefix and one MoveRange walk per piece, or
// only the MoveRange when the whole piece goes.
func (c *Container) movePieces(pieces []offloadPiece, granted int, accepted rmem.ClassCounts) int {
	moved := 0
	for _, pc := range pieces {
		if granted == 0 {
			break
		}
		k := min(pc.n, granted, accepted[pc.cls])
		granted -= min(pc.n, granted)
		if k == 0 {
			continue
		}
		accepted[pc.cls] -= k
		r := pc.r
		if k < pc.n {
			r, _ = c.space.Prefix(r, pc.st, k)
		}
		moved += c.space.MoveRange(r, pc.st, pagemem.Remote)
	}
	return moved
}
