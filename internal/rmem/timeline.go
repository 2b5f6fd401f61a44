package rmem

import (
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// poolDims is the shared dimension set for pool-side timeline series.
var poolDims = timeseries.Dims{Node: "pool"}

// poolGauges are the pool's per-window timeline gauges, resolved on the
// recorder of the platform that claims the sampler (nil until one does).
type poolGauges struct {
	tl                                                 *timeseries.Recorder
	used, faultKinds, unhealthy, dedupSaved, cacheUsed timeseries.SeriesID
}

// Instrument attaches a platform's telemetry to the pool, labelled "pool",
// and reports whether the caller owns the per-window pool sampling
// (SampleTimeline). A rack-shared pool is instrumented by every platform
// that attaches to it: a hub with no sinks is ignored so a
// telemetry-disabled node cannot detach a sibling's instrumentation; the
// first caller with a timeline becomes the sampling owner, resolves the pool
// gauges, arms the flight recorder's fault-window triggers and starts the
// recorder's run; and the fault plan's windows are traced once.
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
	if tl == nil || p.gauges.tl != nil {
		return false
	}
	gauge := func(name string) timeseries.SeriesID { return tl.Series(name, poolDims, timeseries.Gauge) }
	p.gauges = poolGauges{
		tl:         tl,
		used:       gauge(timeseries.SeriesPoolUsedBytes),
		faultKinds: gauge(timeseries.SeriesFaultActiveKinds),
		unhealthy:  gauge(timeseries.SeriesPoolUnhealthy),
		dedupSaved: gauge(timeseries.SeriesDedupSavedPermille),
		cacheUsed:  gauge(timeseries.SeriesCacheUsedBytes),
	}
	// One pool lifetime = one recorder run: a recorder that outlives the
	// pool (a gateway's service-lifetime sink) accumulates multiple runs, so
	// its conservation audit reports itself not-applicable instead of
	// flagging cross-run occupancy jumps, and its burn-rate alarm seals the
	// previous run's last window.
	tl.StartRun()
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

// SampleTimeline records the pool's per-window gauges for every window
// boundary from from through to: occupancy, fault-plan activity, health,
// and — when a memory node is attached — dedup savings and per-tenant quota
// pressure. The owning platform's window sampler calls this once per quiet
// span, whose boundaries are one window apart and between which no event
// fires, so only the fault-plan gauges can change inside it, at the plan's
// window edges.
func (p *Pool) SampleTimeline(from, to simtime.Time) {
	g := &p.gauges
	tl := g.tl
	if tl == nil {
		return
	}
	tl.SetGauge(from, to, g.used, p.used)
	if p.flt != nil {
		window := tl.Window()
		for cur := from; cur <= to; {
			end := to
			if edge, ok := p.flt.NextTransition(cur); ok && edge <= to {
				end = cur + (edge-1-cur)/window*window
			}
			tl.SetGauge(cur, end, g.faultKinds, int64(p.flt.ActiveKinds(cur)))
			var unhealthy int64
			if p.flt.Unhealthy(cur) {
				unhealthy = 1
			}
			tl.SetGauge(cur, end, g.unhealthy, unhealthy)
			cur = end + window
		}
	}
	if p.node == nil {
		return
	}
	if logical := p.node.LogicalBytes(); logical > 0 {
		tl.SetGauge(from, to, g.dedupSaved, p.node.DedupSavedBytes()*1000/logical)
	}
	if quota := p.node.Config().TenantQuotaBytes; quota > 0 {
		for _, u := range p.node.TenantUsages() {
			d := timeseries.Dims{Node: poolDims.Node, Tenant: u.Tenant}
			tl.SetGauge(from, to, tl.Series(timeseries.SeriesTenantQuotaPct, d, timeseries.Gauge),
				u.LogicalBytes*100/quota)
		}
	}
	if cacheCap := p.node.Config().CacheBytes; cacheCap > 0 {
		tl.SetGauge(from, to, g.cacheUsed, p.node.CacheUsedBytes())
		for _, u := range p.node.CacheOccupancies() {
			d := timeseries.Dims{Node: poolDims.Node, Tenant: u.Tenant}
			tl.SetGauge(from, to, tl.Series(timeseries.SeriesCacheOccupancyPct, d, timeseries.Gauge),
				u.LogicalBytes*100/cacheCap)
		}
	}
}
