package faas

import (
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/telemetry"
)

// platformMetrics holds the node's live counters and gauges. Built from a
// nil registry every field is a nil *telemetry.Metric, whose methods are
// no-ops, so the platform updates them unconditionally.
type platformMetrics struct {
	launches       *telemetry.Metric
	coldStarts     *telemetry.Metric
	warmStarts     *telemetry.Metric
	semiWarmStarts *telemetry.Metric
	queuedReqs     *telemetry.Metric
	requests       *telemetry.Metric
	recycles       *telemetry.Metric
	evictions      *telemetry.Metric
	faultPages     *telemetry.Metric
	readaheadPages *telemetry.Metric
	writeBreaks    *telemetry.Metric
	coldReinits    *telemetry.Metric
	fallbackPages  *telemetry.Metric
	// offloadedPages is indexed by telemetry.Stage (which mirrors
	// memnode.Class): pages moved to the pool per lifecycle segment — the
	// per-stage visibility Figs. 8–9 need.
	offloadedPages [memnode.NumClasses]*telemetry.Metric
	live           *telemetry.Metric
	localBytes     *telemetry.Metric
	remoteBytes    *telemetry.Metric
	// reqLatency is the end-to-end request latency distribution exposed as
	// a Prometheus histogram (seconds).
	reqLatency *telemetry.Histogram
}

func newPlatformMetrics(reg *telemetry.Registry) platformMetrics {
	return platformMetrics{
		launches:       reg.Counter("faasmem_containers_launched_total", "containers ever cold-started"),
		coldStarts:     reg.Counter("faasmem_cold_starts_total", "requests that launched a new container"),
		warmStarts:     reg.Counter("faasmem_warm_starts_total", "requests served by a fully-local idle container"),
		semiWarmStarts: reg.Counter("faasmem_semiwarm_starts_total", "requests served by a partially-offloaded idle container"),
		queuedReqs:     reg.Counter("faasmem_requests_queued_total", "requests queued behind the scale-out cap"),
		requests:       reg.Counter("faasmem_requests_completed_total", "completed requests"),
		recycles:       reg.Counter("faasmem_container_recycles_total", "containers torn down (keep-alive expiry or eviction)"),
		evictions:      reg.Counter("faasmem_containers_evicted_total", "idle containers evicted by the node memory limit"),
		faultPages:     reg.Counter("faasmem_fault_pages_total", "remote pages demand-faulted on request critical paths"),
		readaheadPages: reg.Counter("faasmem_readahead_pages_total", "remote pages recalled by swap readahead"),
		writeBreaks:    reg.Counter("faasmem_write_break_pages_total", "runtime pages privatized by copy-on-write unmerge breaks"),
		coldReinits:    reg.Counter("faasmem_cold_reinits_total", "containers discarded and relaunched after a fetch timeout"),
		fallbackPages:  reg.Counter("faasmem_fallback_pages_total", "remote pages served from the local swap copy during outages"),
		offloadedPages: [memnode.NumClasses]*telemetry.Metric{
			telemetry.StageNone:    reg.Counter("faasmem_pages_offloaded_unsegmented_total", "pages offloaded outside any tracked segment"),
			telemetry.StageRuntime: reg.Counter("faasmem_pages_offloaded_runtime_total", "runtime-segment pages offloaded to the pool"),
			telemetry.StageInit:    reg.Counter("faasmem_pages_offloaded_init_total", "init-segment pages offloaded to the pool"),
			telemetry.StageExec:    reg.Counter("faasmem_pages_offloaded_exec_total", "exec-segment pages offloaded to the pool"),
			telemetry.StageShared:  reg.Counter("faasmem_pages_offloaded_shared_total", "shared-region pages offloaded to the pool"),
		},
		live:        reg.Gauge("faasmem_live_containers", "containers currently alive on the node"),
		localBytes:  reg.Gauge("faasmem_node_local_bytes", "node-local DRAM currently charged"),
		remoteBytes: reg.Gauge("faasmem_node_remote_bytes", "bytes resident in the remote pool for this node"),
		reqLatency:  reg.Histogram("faasmem_request_latency_seconds", "end-to-end request latency (arrival to completion)", telemetry.DefBuckets),
	}
}

// syncMemGauges refreshes the node memory gauges after an accounting change.
// Guarded so the disabled path does not even read the cgroup totals.
func (p *Platform) syncMemGauges() {
	if p.tel.Reg == nil {
		return
	}
	p.met.localBytes.Set(p.nodeCG.LocalBytes())
	p.met.remoteBytes.Set(p.nodeCG.RemoteBytes())
}
