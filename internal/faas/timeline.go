package faas

import (
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// armTimeline starts the per-window ticker that samples the node's
// occupancy gauges into the Config.Telemetry.Timeline recorder. poolOwner
// reports that this platform owns the pool-side sampling too (the first
// platform to attach a rack-shared pool), so pool series are sampled once
// per rack rather than once per node. No-op when the timeline is disabled —
// nothing is scheduled and the DES hot path keeps its single nil check.
func (p *Platform) armTimeline(poolOwner bool) {
	tl := p.tel.Timeline
	if tl == nil {
		return
	}
	nodeDims := timeseries.Dims{Node: p.tel.Node()}
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

// syncMemGauges samples the node memory gauges after an accounting change.
func (p *Platform) syncMemGauges() {
	p.tel.NodeMemory(p.nodeCG.LocalBytes(), p.nodeCG.RemoteBytes())
}
