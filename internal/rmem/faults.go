package rmem

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file is the pool's fault-injection seam: health probes against the
// configured faultinject.Plan, degraded-mode bookkeeping, the bounded-retry
// fetch path, and the local-fallback ledger release. Every entry point
// collapses to a nil check when no plan is injected, keeping the fault-free
// path bit-identical to a build without fault injection.

// FaultsPlanned reports whether a non-empty fault plan is injected.
func (p *Pool) FaultsPlanned() bool { return p.flt != nil }

// Healthy reports whether the remote path is usable at now: no link flap
// and no pool-node crash in force. Always true without a fault plan.
func (p *Pool) Healthy(now simtime.Time) bool {
	return p.flt == nil || !p.flt.Unhealthy(now)
}

// probeHealth returns the typed error describing the remote path's state at
// now, or nil when healthy. Call sites pass the real current time (it also
// refreshes degraded-mode bookkeeping); use the plan directly to probe
// hypothetical future instants.
func (p *Pool) probeHealth(now simtime.Time) error {
	if p.flt == nil {
		return nil
	}
	p.noteHealth(now)
	if p.flt.PoolDown(now) {
		return ErrPoolDown
	}
	if p.flt.LinkDown(now) {
		return ErrLinkDown
	}
	return nil
}

// noteHealth refreshes edge-triggered degraded-mode state as of the real
// current time: it records enter/exit transitions and keeps the memnode's
// injected tier-storm flag in sync with the plan.
func (p *Pool) noteHealth(now simtime.Time) {
	if p.flt == nil {
		return
	}
	if p.node != nil {
		p.node.SetForceFull(p.flt.TierStorm(now))
	}
	healthy := !p.flt.Unhealthy(now)
	if healthy == p.healthy {
		return
	}
	p.healthy = healthy
	p.tel.DegradedEdge(now, healthy)
}

// FetchRetry is a request's demand-fault batch (faultBatchOwner) behind
// the recovery state machine: while a fault plan shows the remote path
// unhealthy it backs off (retryBackoff, doubling) until the path is healthy
// again, then fetches; the backoff wait is added to the returned stall. It
// gives up with ErrFetchTimeout once the next backoff would pass
// fetchTimeout; the caller then falls back to local swap or cold re-init
// and no pool state has been touched. Without a plan it is the plain batch.
func (p *Pool) FetchRetry(now simtime.Time, owner, fn string, counts ClassCounts) (FaultStall, error) {
	if p.flt == nil {
		return p.faultBatchOwner(now, owner, fn, counts), nil
	}
	p.noteHealth(now)
	var waited time.Duration
	backoff := retryBackoff
	retries := 0
	for {
		if !p.flt.Unhealthy(now + simtime.Time(waited)) {
			// Path (back) up: fetch now. All mutation happens at the real
			// current time; only the plan was probed at future instants.
			stall := p.faultBatchOwner(now, owner, fn, counts)
			stall.Backoff = waited
			stall.Retries = retries
			stall.Total += waited
			return stall, nil
		}
		retries++
		if waited+backoff > fetchTimeout {
			p.tel.FetchTimeout(now, waited, owner, fn, counts.Total())
			err := ErrPoolDown
			if !p.flt.PoolDown(now + simtime.Time(waited)) {
				err = ErrLinkDown
			}
			return FaultStall{Backoff: waited, Retries: retries},
				fmt.Errorf("%w after %d attempts (%v waited): %w", ErrFetchTimeout, retries, waited, err)
		}
		p.tel.FetchRetry(now+simtime.Time(waited), owner, fn, retries, backoff)
		waited += backoff
		backoff *= 2
	}
}

// RecallLocal releases a described batch's pool holdings without touching
// the wire: the caller served the pages from its local swap copy (fallback
// after a fetch timeout), so the bytes leave the pool ledger but no transfer
// or fault latency is modeled here. The release lands in the flow ledger as
// a fallback flow stamped at now.
func (p *Pool) RecallLocal(now simtime.Time, owner, fn string, counts ClassCounts) {
	p.nodeRecall(now, owner, fn, counts)
	p.move(now, timeseries.FlowFallback, nil, fn, counts, int64(counts.Total())*pageBytes)
}
