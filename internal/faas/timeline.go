package faas

import (
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// armTimeline wires the platform into its Config.Telemetry.Timeline recorder: it
// caches the node dimension, attaches the pool (arming the flight
// recorder's fault-window triggers), and starts a per-window ticker that
// samples the node's occupancy gauges. On a rack-shared pool the first
// platform to attach also owns the pool-side gauge sampling, so pool series
// are sampled once per rack rather than once per node. No-op when the
// timeline is disabled — nothing is scheduled and the DES hot path keeps
// its single nil check.
func (p *Platform) armTimeline() {
	p.tlNode = p.cfg.NodeID
	if p.tlNode == "" {
		p.tlNode = "n0"
	}
	tl := p.tel.Timeline
	if !tl.Enabled() {
		return
	}
	poolOwner := p.pool.InstrumentTimeline(tl)
	nodeDims := timeseries.Dims{Node: p.tlNode}
	simtime.NewTicker(p.engine, tl.Window(), func(e *simtime.Engine) {
		now := e.Now()
		tl.SetGauge(now, timeseries.SeriesNodeLocalBytes, nodeDims, p.NodeLocalBytes())
		tl.SetGauge(now, timeseries.SeriesNodeRemoteBytes, nodeDims, p.NodeRemoteBytes())
		tl.SetGauge(now, timeseries.SeriesLiveContainers, nodeDims, int64(p.liveTotal))
		if poolOwner {
			p.pool.SampleTimeline(now)
		}
	})
}
