package faas

import (
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// armTimeline starts the window sampler that records the node's occupancy
// gauges into the Config.Telemetry.Timeline recorder, once per quiet span
// of windows (see simtime.Sampler). poolOwner reports that this platform
// owns the pool-side sampling too (the first platform to attach a
// rack-shared pool), so pool series are sampled once per rack rather than
// once per node. No-op when the timeline is disabled — nothing is scheduled
// and the DES hot path keeps its single nil check.
func (p *Platform) armTimeline(poolOwner bool) {
	tl := p.tel.Timeline
	if tl == nil {
		return
	}
	nodeDims := timeseries.Dims{Node: p.tel.Node()}
	local := tl.Series(timeseries.SeriesNodeLocalBytes, nodeDims, timeseries.Gauge)
	remote := tl.Series(timeseries.SeriesNodeRemoteBytes, nodeDims, timeseries.Gauge)
	live := tl.Series(timeseries.SeriesLiveContainers, nodeDims, timeseries.Gauge)
	simtime.NewSampler(p.engine, tl.Window(), func(from, to simtime.Time) {
		tl.SetGauge(from, to, local, p.NodeLocalBytes())
		tl.SetGauge(from, to, remote, p.NodeRemoteBytes())
		tl.SetGauge(from, to, live, int64(p.liveTotal))
		if poolOwner {
			p.pool.SampleTimeline(from, to)
		}
	})
}
