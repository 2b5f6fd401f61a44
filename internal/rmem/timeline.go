package rmem

import (
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// poolDims is the shared dimension set for pool-side timeline series. A
// package-level value keeps the enabled hot path allocation-free.
var poolDims = timeseries.Dims{Node: "pool"}

// Instrument attaches a platform's telemetry to the pool, labelled "pool",
// and reports whether the caller owns the per-window pool sampling
// (SampleTimeline). A rack-shared pool is instrumented by every platform
// that attaches to it: a hub with no sinks is ignored so a
// telemetry-disabled node cannot detach a sibling's instrumentation; the
// first caller with a timeline becomes the sampling owner, arms the flight
// recorder's fault-window triggers and starts the flow-ledger run; and the
// fault plan's windows are traced once.
func (p *Pool) Instrument(h telemetry.Hub) (owner bool) {
	if h.Tracer == nil && h.Reg == nil && h.Timeline == nil && h.Spans == nil && h.Exemplars == nil {
		return false
	}
	p.tel = h.Attach(poolDims.Node)
	p.node.Instrument(h.Reg)
	if p.flt != nil && h.Tracer != nil && !p.windowsTraced {
		p.windowsTraced = true
		for _, w := range p.flt.Windows() {
			p.tel.FaultWindow(w.Start, w.End, int(w.Kind), w.Factor)
		}
	}
	tl := h.Timeline
	if tl == nil || p.tlClaimed {
		return false
	}
	p.tlClaimed = true
	// One pool lifetime = one flow-ledger run: a recorder that outlives the
	// pool (a gateway's service-lifetime sink) accumulates multiple runs and
	// its conservation audit reports itself not-applicable instead of
	// flagging cross-run occupancy jumps.
	tl.StartFlowRun()
	if p.flt != nil {
		windows := p.flt.Windows()
		starts := make([]simtime.Time, len(windows))
		for i, w := range windows {
			starts[i] = w.Start
		}
		tl.ArmFaultStarts(starts)
	}
	return true
}

// SampleTimeline records the pool's per-window gauges at now: occupancy,
// fault-plan activity, health, and — when a memory node is attached — dedup
// savings and per-tenant quota pressure. The owning platform's window
// ticker calls this once per window.
func (p *Pool) SampleTimeline(now simtime.Time) {
	tl := p.tel.Timeline
	if tl == nil {
		return
	}
	tl.SetGauge(now, timeseries.SeriesPoolUsedBytes, poolDims, p.used)
	if p.flt != nil {
		tl.SetGauge(now, timeseries.SeriesFaultActiveKinds, poolDims, int64(p.flt.ActiveKinds(now)))
		var unhealthy int64
		if p.flt.Unhealthy(now) {
			unhealthy = 1
		}
		tl.SetGauge(now, timeseries.SeriesPoolUnhealthy, poolDims, unhealthy)
	}
	if p.node == nil {
		return
	}
	if logical := p.node.LogicalBytes(); logical > 0 {
		tl.SetGauge(now, timeseries.SeriesDedupSavedPermille, poolDims,
			p.node.DedupSavedBytes()*1000/logical)
	}
	if quota := p.node.Config().TenantQuotaBytes; quota > 0 {
		for _, u := range p.node.TenantUsages() {
			tl.SetGauge(now, timeseries.SeriesTenantQuotaPct,
				timeseries.Dims{Node: "pool", Tenant: u.Tenant},
				u.LogicalBytes*100/quota)
		}
	}
	if cacheCap := p.node.Config().CacheBytes; cacheCap > 0 {
		tl.SetGauge(now, timeseries.SeriesCacheUsedBytes, poolDims, p.node.CacheUsedBytes())
		for _, u := range p.node.CacheOccupancies() {
			tl.SetGauge(now, timeseries.SeriesCacheOccupancyPct,
				timeseries.Dims{Node: "pool", Tenant: u.Tenant},
				u.LogicalBytes*100/cacheCap)
		}
	}
}
