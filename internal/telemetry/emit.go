package telemetry

import (
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file is the simulator's single emission point. Every occurrence faas,
// core, rmem and cluster report is one typed method on an attached Hub, which
// fans it out to the sinks that are on: the tracer ring, the registry's
// counters and latency histogram, the timeline's counters and latency
// series, the span recorder's backgrounds, and the span tree plus exemplar
// of a completed request. The node, function and stage or class labels of
// every sink come from the method's one set of arguments, so the sinks
// cannot disagree about what happened. Each sink costs one nil check when it
// is off (nil metrics and recorders are no-ops). Attach resolves the
// registry handles and the timeline series that carry only the node
// dimension, so those emits look no name up; a timeline series with a tenant
// dimension is resolved at its emit site, one key probe. No method
// allocates once its timeline window exists.
//
// The pool-side memory node is bookkeeping with no telemetry of its own:
// the pool reports it through MemNode after every node call, whose handles
// AttachMemNode resolves only for a pool that has a node. Other state
// samples (node and pool gauges, the timeline's byte-flow ledger) are not
// occurrences and stay with their owners.

// NumStages sizes Stage-indexed arrays; Stage numbering matches
// memnode.Class, so a per-class page count indexes by stage directly.
const NumStages = 5

// stageClass names each stage the way the timeline labels page classes
// (memnode.Class.String).
var stageClass = [NumStages]string{
	StageNone: "other", StageRuntime: "runtime", StageInit: "init", StageExec: "exec", StageShared: "shared",
}

// handles are the registry metrics the emit methods update.
type handles struct {
	coldStarts, warmStarts, semiWarmStarts   *Metric
	requests, recycles, evictions            *Metric
	faultPages, readaheadPages, writeBreaks  *Metric
	clusterReads, coldReinits, fallbackPages *Metric
	offloadedPages                           [NumStages]*Metric
	live, localBytes, remoteBytes            *Metric
	reqLatency                               *Histogram
	// linkBytes is indexed by link direction (0 offload, 1 recall).
	linkBytes                              [2]*Metric
	poolUsed                               *Metric
	saturation, fetchRetries, fetchTimeout *Metric
	degraded, injectedStall                *Metric
	// mem is nil-valued until AttachMemNode.
	mem memNodeHandles

	// The timeline series with only the node dimension. linkSeries is
	// indexed like linkBytes.
	linkSeries                                  [2]timeseries.SeriesID
	retrySeries, timeoutSeries, unhealthySeries timeseries.SeriesID
}

func newHandles(reg *Registry, tl *timeseries.Recorder, node string) handles {
	nd := timeseries.Dims{Node: node}
	return handles{
		coldStarts:     reg.Counter("faasmem_cold_starts_total", "requests that launched a new container"),
		warmStarts:     reg.Counter("faasmem_warm_starts_total", "requests served by a fully-local idle container"),
		semiWarmStarts: reg.Counter("faasmem_semiwarm_starts_total", "requests served by a partially-offloaded idle container"),
		requests:       reg.Counter("faasmem_requests_completed_total", "completed requests"),
		recycles:       reg.Counter("faasmem_container_recycles_total", "containers torn down (keep-alive expiry or eviction)"),
		evictions:      reg.Counter("faasmem_containers_evicted_total", "idle containers evicted by the node memory limit"),
		faultPages:     reg.Counter("faasmem_fault_pages_total", "remote pages demand-faulted on request critical paths"),
		readaheadPages: reg.Counter("faasmem_readahead_pages_total", "remote pages recalled by swap readahead"),
		clusterReads:   reg.Counter("faasmem_swap_cluster_reads_total", "fault batches that pulled a readahead cluster"),
		writeBreaks:    reg.Counter("faasmem_write_break_pages_total", "runtime pages privatized by copy-on-write unmerge breaks"),
		coldReinits:    reg.Counter("faasmem_cold_reinits_total", "containers discarded and relaunched after a fetch timeout"),
		fallbackPages:  reg.Counter("faasmem_fallback_pages_total", "remote pages served from the local swap copy during outages"),
		offloadedPages: [NumStages]*Metric{
			StageNone:    reg.Counter("faasmem_pages_offloaded_unsegmented_total", "pages offloaded outside any tracked segment"),
			StageRuntime: reg.Counter("faasmem_pages_offloaded_runtime_total", "runtime-segment pages offloaded to the pool"),
			StageInit:    reg.Counter("faasmem_pages_offloaded_init_total", "init-segment pages offloaded to the pool"),
			StageExec:    reg.Counter("faasmem_pages_offloaded_exec_total", "exec-segment pages offloaded to the pool"),
			StageShared:  reg.Counter("faasmem_pages_offloaded_shared_total", "shared-region pages offloaded to the pool"),
		},
		live:        reg.Gauge("faasmem_live_containers", "containers currently alive on the node"),
		localBytes:  reg.Gauge("faasmem_node_local_bytes", "node-local DRAM currently charged"),
		remoteBytes: reg.Gauge("faasmem_node_remote_bytes", "bytes resident in the remote pool for this node"),
		reqLatency:  reg.Histogram("faasmem_request_latency_seconds", "end-to-end request latency (arrival to completion)"),
		linkBytes: [2]*Metric{
			reg.Counter("faasmem_link_offload_bytes_total", "bytes bulk-transferred node->pool"),
			reg.Counter("faasmem_link_recall_bytes_total", "bytes transferred pool->node (bulk and faults)"),
		},
		poolUsed:      reg.Gauge("faasmem_pool_used_bytes", "bytes currently stored in the remote pool"),
		saturation:    reg.Counter("faasmem_link_saturation_events_total", "faults served while link utilization was past the saturation point"),
		fetchRetries:  reg.Counter("faasmem_fetch_retries_total", "page-fetch attempts retried after a transient link/pool fault"),
		fetchTimeout:  reg.Counter("faasmem_fetch_timeouts_total", "page fetches abandoned after exhausting retries or the fetch timeout"),
		degraded:      reg.Counter("faasmem_degraded_transitions_total", "degraded-mode enter+exit transitions observed by the pool"),
		injectedStall: reg.Counter("faasmem_injected_stall_us_total", "microseconds of fault-latency added by injected latency spikes"),
		linkSeries: [2]timeseries.SeriesID{
			tl.Series(timeseries.SeriesOffloadBytes, nd, timeseries.Counter),
			tl.Series(timeseries.SeriesRecallBytes, nd, timeseries.Counter),
		},
		retrySeries:     tl.Series(timeseries.SeriesFetchRetries, nd, timeseries.Counter),
		timeoutSeries:   tl.Series(timeseries.SeriesFetchTimeouts, nd, timeseries.Counter),
		unhealthySeries: tl.Series(timeseries.SeriesPoolUnhealthy, nd, timeseries.Gauge),
	}
}

// memNodeHandles are the memory node's registry metrics: counters that
// MemNode advances by the change between two node snapshots, and gauges it
// sets to the later one.
type memNodeHandles struct {
	dedupHits, compressed, spilled, evictions *Metric
	quotaRejects, fullRejects, merged         *Metric
	cacheHits, cacheMisses                    *Metric
	logical, resident, dramUsed, spillUsed    *Metric
	dedupSaved, compSaved, cacheUsed          *Metric
}

// Attach returns h bound to one emitting component: each sink h leaves nil
// is filled from the process default (SetDefault), node labels the timeline
// dimensions and exemplar cells of everything it emits ("n0" for a compute
// node, "pool", "rack"), and the registry handles and node-level timeline
// series are resolved now, so set the sinks before attaching. An unattached
// hub's emit methods skip the registry and the node-level timeline series.
func (h Hub) Attach(node string) Hub {
	h = h.orDefault()
	h.node = node
	h.met = newHandles(h.Reg, h.Timeline, node)
	return h
}

// AttachMemNode resolves the memory node's registry handles on an attached
// hub. Only a pool with a memory node calls it, so a run without one
// registers none of the node's families.
func (h *Hub) AttachMemNode() {
	reg := h.Reg
	h.met.mem = memNodeHandles{
		dedupHits:    reg.Counter("faasmem_memnode_dedup_hit_pages_total", "offloaded pages admitted without a new resident copy"),
		compressed:   reg.Counter("faasmem_memnode_compressed_pages_total", "pages moved into the compression tier"),
		spilled:      reg.Counter("faasmem_memnode_spilled_pages_total", "pages demoted to the spill tier"),
		evictions:    reg.Counter("faasmem_memnode_evictions_total", "LRU-by-class eviction (demotion) events"),
		quotaRejects: reg.Counter("faasmem_memnode_quota_reject_pages_total", "offloaded pages rejected by tenant quota"),
		fullRejects:  reg.Counter("faasmem_memnode_full_reject_pages_total", "offloaded pages rejected because DRAM and spill were full"),
		merged:       reg.Counter("faasmem_memnode_merged_pages_total", "pages admitted onto a merge master wider than their function"),
		cacheHits:    reg.Counter("faasmem_memnode_cache_hit_pages_total", "recalled pages served from the shared cache tier"),
		cacheMisses:  reg.Counter("faasmem_memnode_cache_miss_pages_total", "recalled shared pages that missed the cache tier"),
		logical:      reg.Gauge("faasmem_memnode_logical_bytes", "bytes offloaded to the memory node (pre-dedup/compression)"),
		resident:     reg.Gauge("faasmem_memnode_resident_bytes", "bytes the node actually stores (post-dedup/compression, DRAM+spill)"),
		dramUsed:     reg.Gauge("faasmem_memnode_dram_used_bytes", "node DRAM in use (hot + compressed tiers)"),
		spillUsed:    reg.Gauge("faasmem_memnode_spill_used_bytes", "node spill tier in use"),
		dedupSaved:   reg.Gauge("faasmem_memnode_dedup_saved_bytes", "bytes saved by content-class dedup"),
		compSaved:    reg.Gauge("faasmem_memnode_compress_saved_bytes", "bytes saved by the compression tier"),
		cacheUsed:    reg.Gauge("faasmem_memnode_cache_used_bytes", "shared cache tier occupancy"),
	}
}

// Node returns the label Attach bound.
func (h *Hub) Node() string { return h.node }

// dims is the node-and-tenant dimension set.
func (h *Hub) dims(fn string) timeseries.Dims { return timeseries.Dims{Node: h.node, Tenant: fn} }

// trace records ev when the tracer is on.
func (h *Hub) trace(ev Event) {
	if h.Tracer != nil {
		h.Tracer.record(ev)
	}
}

// --- container lifecycle ---

// Launch reports a cold start: a container launched for fn, leaving live
// containers on the node.
func (h *Hub) Launch(now simtime.Time, container, fn string, live int) {
	h.met.coldStarts.Inc()
	h.met.live.Set(int64(live))
	h.trace(Event{At: now, Kind: KindContainerLaunch, Actor: container, Fn: fn})
}

// WarmStart reports a request served by an idle container;
// semiWarm marks one whose container had offloaded part of its memory.
func (h *Hub) WarmStart(semiWarm bool) {
	if semiWarm {
		h.met.semiWarmStarts.Inc()
	} else {
		h.met.warmStarts.Inc()
	}
}

// Barrier reports a lifecycle stage of pages pages completing at now: the
// runtime loaded (StageRuntime) or the function initialized (StageInit),
// a phase that ran from from, and the time barrier sealing that stage's
// Pucket.
func (h *Hub) Barrier(stage Stage, from, now simtime.Time, container, fn string, pages int) {
	kind := KindInitDone
	if stage == StageRuntime {
		kind = KindRuntimeLoaded
	}
	h.trace(Event{
		At: from, Dur: time.Duration(now - from), Kind: kind,
		Actor: container, Fn: fn, Stage: stage, Value: int64(pages),
	})
	h.trace(Event{
		At: now, Kind: KindBarrierInsert, Actor: container, Fn: fn,
		Stage: stage, Value: int64(pages), Aux: stage.pucketGen(),
	})
}

// Idle reports a container entering keep-alive.
func (h *Hub) Idle(now simtime.Time, container, fn string) {
	h.trace(Event{At: now, Kind: KindContainerIdle, Actor: container, Fn: fn})
}

// Evict reports the node memory limit forcing out an idle container holding
// localBytes; its Recycle follows.
func (h *Hub) Evict(now simtime.Time, container, fn string, localBytes int64) {
	h.met.evictions.Inc()
	h.trace(Event{At: now, Kind: KindContainerEvict, Actor: container, Fn: fn, Value: localBytes})
}

// Recycle reports a container torn down with remoteBytes still in the pool,
// leaving live containers on the node.
func (h *Hub) Recycle(now simtime.Time, container, fn string, remoteBytes int64, live int) {
	h.met.recycles.Inc()
	h.met.live.Set(int64(live))
	h.trace(Event{At: now, Kind: KindContainerRecycle, Actor: container, Fn: fn, Value: remoteBytes})
}

// NodeMemory samples the node's local and remote bytes into the registry
// gauges.
func (h *Hub) NodeMemory(local, remote int64) {
	h.met.localBytes.Set(local)
	h.met.remoteBytes.Set(remote)
}

// --- requests ---

// Request is one completed request.
type Request struct {
	// Container and Fn identify where the request ran.
	Container, Fn string
	// Kind is the start path the request took.
	Kind span.StartKind
	// Arrival, Start and End are when the request arrived, began executing
	// and completed.
	Arrival, Start, End simtime.Time
	// Faults is the request's remote fault count.
	Faults int
}

// RequestDone reports a completed request. tree builds its span tree; it
// is called at most once, and only when the span or exemplar recorder is on.
func (h *Hub) RequestDone(r Request, tree func() span.Invocation) {
	latency := time.Duration(r.End - r.Arrival)
	h.met.requests.Inc()
	h.met.reqLatency.Observe(latency)
	h.trace(Event{
		At: r.Start, Dur: time.Duration(r.End - r.Start), Kind: KindRequest,
		Actor: r.Container, Fn: r.Fn, Value: int64(r.Faults), Aux: int64(r.Kind),
	})
	if h.Spans != nil || h.Exemplars != nil {
		// One tree feeds both sinks; the exemplar recorder works without
		// the span recorder so drill-down need not retain every request.
		inv := tree()
		h.Spans.Record(inv)
		h.Exemplars.Record(r.End, h.node, r.Fn, latency, inv)
	}
	if tl := h.Timeline; tl != nil {
		d := h.dims(r.Fn)
		tl.AddCounter(r.End, tl.Series(timeseries.SeriesRequests, d, timeseries.Counter), 1)
		if r.Kind == span.Cold {
			tl.AddCounter(r.End, tl.Series(timeseries.SeriesColdStarts, d, timeseries.Counter), 1)
		}
		tl.ObserveLatency(r.End, tl.Series(timeseries.SeriesRequestLatency, d, timeseries.Sample), latency)
	}
}

// FaultStall reports a request stalled for dur from now on demand faults:
// faults[st] pages of each stage faulted and readahead[st] more rode along,
// so a batch with any readahead is one cluster read.
func (h *Hub) FaultStall(now simtime.Time, dur time.Duration, container, fn string, faults, readahead [NumStages]int) {
	if readahead != ([NumStages]int{}) {
		h.met.clusterReads.Inc()
	}
	for st := range faults {
		h.met.faultPages.Add(int64(faults[st]))
		h.met.readaheadPages.Add(int64(readahead[st]))
		if faults[st]+readahead[st] > 0 {
			h.trace(Event{
				At: now, Dur: dur, Kind: KindPageFault, Actor: container, Fn: fn,
				Stage: Stage(st), Value: int64(faults[st]), Aux: int64(readahead[st]),
			})
		}
	}
}

// WriteBreak reports a request's writes breaking copy-on-write merge
// sharing: pages runtime pages privatized and recalled more brought home,
// stalling the request for dur.
func (h *Hub) WriteBreak(now simtime.Time, dur time.Duration, container, fn string, pages, recalled int) {
	h.met.writeBreaks.Add(int64(pages))
	if dur > 0 {
		h.trace(Event{
			At: now, Dur: dur, Kind: KindPageFault, Actor: container, Fn: fn,
			Stage: StageRuntime, Value: int64(pages), Aux: int64(recalled),
		})
	}
}

// LocalFallback reports a timed-out fetch served from the local swap copy:
// pages were read locally (faults of them demand faults) over dur, the
// backoff included.
func (h *Hub) LocalFallback(now simtime.Time, dur time.Duration, container, fn string, faults, pages int) {
	h.met.faultPages.Add(int64(faults))
	h.met.fallbackPages.Add(int64(pages))
	h.trace(Event{At: now, Dur: dur, Kind: KindLocalFallback, Actor: container, Fn: fn, Value: int64(pages)})
	tl := h.Timeline
	tl.AddCounter(now, tl.Series(timeseries.SeriesFallbackPages, h.dims(fn), timeseries.Counter), int64(pages))
}

// ColdReinit reports a container discarded for a cold re-init after retries
// failed fetch attempts that waited dur.
func (h *Hub) ColdReinit(now simtime.Time, dur time.Duration, container, fn string, retries int) {
	h.met.coldReinits.Inc()
	h.trace(Event{At: now, Dur: dur, Kind: KindColdReinit, Actor: container, Fn: fn, Value: int64(retries)})
	tl := h.Timeline
	tl.AddCounter(now, tl.Series(timeseries.SeriesColdReinits, h.dims(fn), timeseries.Counter), 1)
}

// RescheduledFault reports a request of fn routed away from a
// fault-degraded node.
func (h *Hub) RescheduledFault(now simtime.Time, fn string) {
	tl := h.Timeline
	tl.AddCounter(now, tl.Series(timeseries.SeriesRescheduledFault, h.dims(fn), timeseries.Counter), 1)
}

// --- offload policy ---

// OffloadBatch reports pages[st] pages of each stage, bytes in all, moved to
// the pool at now by a transfer occupying the link over [start, done).
func (h *Hub) OffloadBatch(now, start, done simtime.Time, container, fn string, pages [NumStages]int, bytes int64) {
	h.Spans.RecordBackground(span.Background{
		Kind: span.BGOffload, Function: fn, Container: container,
		Start: start, Dur: time.Duration(done - start), Bytes: bytes,
	})
	tl := h.Timeline
	for st, n := range pages {
		if n == 0 {
			continue
		}
		h.met.offloadedPages[st].Add(int64(n))
		h.trace(Event{At: now, Kind: KindPageOffload, Actor: container, Fn: fn, Stage: Stage(st), Value: int64(n)})
		d := timeseries.Dims{Node: h.node, Tenant: fn, Class: stageClass[st]}
		tl.AddCounter(now, tl.Series(timeseries.SeriesOffloadPages, d, timeseries.Counter), int64(n))
	}
}

// PucketOffload reports the Pucket of stage draining pages inactive pages to
// the pool.
func (h *Hub) PucketOffload(now simtime.Time, container, fn string, stage Stage, pages int) {
	h.trace(Event{At: now, Kind: KindPucketOffload, Actor: container, Fn: fn, Stage: stage, Value: int64(pages), Aux: stage.pucketGen()})
}

// WindowFixed reports the §5.2 request window sealed at n requests.
func (h *Hub) WindowFixed(now simtime.Time, container, fn string, n int) {
	h.trace(Event{At: now, Kind: KindWindowFixed, Actor: container, Fn: fn, Stage: StageInit, Value: int64(n)})
}

// Rollback reports a §5.3 rollback demoting pages hot pages (bytes in all)
// back to their Puckets.
func (h *Hub) Rollback(now simtime.Time, container, fn string, pages int, bytes int64) {
	h.trace(Event{At: now, Kind: KindRollback, Actor: container, Fn: fn, Value: int64(pages)})
	h.Spans.RecordBackground(span.Background{Kind: span.BGRollback, Function: fn, Container: container, Start: now, Bytes: bytes})
}

// SemiWarmEnter reports a container entering the §6 semi-warm period with
// localBytes resident.
func (h *Hub) SemiWarmEnter(now simtime.Time, container, fn string, localBytes int64) {
	h.trace(Event{At: now, Kind: KindSemiWarmEnter, Actor: container, Fn: fn, Value: localBytes})
}

// SemiWarmExit reports a semi-warm period that ran from from to now and left
// remoteBytes in the pool.
func (h *Hub) SemiWarmExit(from, now simtime.Time, container, fn string, remoteBytes int64) {
	dur := time.Duration(now - from)
	h.trace(Event{At: from, Dur: dur, Kind: KindSemiWarmExit, Actor: container, Fn: fn, Value: remoteBytes})
	h.Spans.RecordBackground(span.Background{
		Kind: span.BGSemiWarm, Function: fn, Container: container, Start: from, Dur: dur, Bytes: remoteBytes,
	})
}

// --- pool and link ---

// LinkBytes reports bytes crossing the pool link at now in direction dir (0
// offload, 1 recall). A transfer that occupied the link for dur from start
// also lands in the tracer as a link-transfer span; dur 0 (demand faults,
// private writebacks) counts the bytes only.
func (h *Hub) LinkBytes(now simtime.Time, dir int, bytes int64, start simtime.Time, dur time.Duration) {
	h.met.linkBytes[dir].Add(bytes)
	h.Timeline.AddCounter(now, h.met.linkSeries[dir], bytes)
	if dur > 0 {
		h.trace(Event{At: start, Dur: dur, Kind: KindLinkTransfer, Actor: "link", Value: bytes, Aux: int64(dir)})
	}
}

// PoolUsed samples the pool's occupancy into the registry gauge.
func (h *Hub) PoolUsed(used int64) { h.met.poolUsed.Set(used) }

// MemNode reports the memory node's activity between two of its snapshots:
// each counter grows by cur − prev, and each gauge reads cur.
func (h *Hub) MemNode(prev, cur *memnode.Stats) {
	m := &h.met.mem
	m.dedupHits.Add(cur.DedupHitPages - prev.DedupHitPages)
	m.compressed.Add(cur.CompressedPages - prev.CompressedPages)
	m.spilled.Add(cur.SpilledPages - prev.SpilledPages)
	m.evictions.Add(cur.Evictions - prev.Evictions)
	m.quotaRejects.Add(cur.QuotaRejectPages - prev.QuotaRejectPages)
	m.fullRejects.Add(cur.FullRejectPages - prev.FullRejectPages)
	m.merged.Add(cur.MergedPages - prev.MergedPages)
	m.cacheHits.Add(cur.CacheHitPages - prev.CacheHitPages)
	m.cacheMisses.Add(cur.CacheMissPages - prev.CacheMissPages)
	m.logical.Set(cur.LogicalBytes)
	m.resident.Set(cur.ResidentBytes)
	m.dramUsed.Set(cur.DRAMUsedBytes)
	m.spillUsed.Set(cur.SpillUsedBytes)
	m.dedupSaved.Set(cur.DedupSavedBytes)
	m.compSaved.Set(cur.CompressSavedBytes)
	m.cacheUsed.Set(cur.CacheUsedBytes)
}

// LinkSaturation reports a fault served while link utilization util was
// past the saturation point.
func (h *Hub) LinkSaturation(now simtime.Time, util float64) {
	h.met.saturation.Inc()
	h.trace(Event{At: now, Kind: KindLinkSaturation, Actor: "link", Value: int64(util * 100)})
}

// InjectedStall reports fault latency d added by a fault-plan latency spike.
func (h *Hub) InjectedStall(d time.Duration) { h.met.injectedStall.Add(d.Microseconds()) }

// FetchRetry reports a failed page fetch of container (function fn) retried
// at at, attempt attempt, after waiting backoff.
func (h *Hub) FetchRetry(at simtime.Time, container, fn string, attempt int, backoff time.Duration) {
	h.met.fetchRetries.Inc()
	h.trace(Event{At: at, Kind: KindFetchRetry, Actor: container, Fn: fn, Value: int64(attempt), Aux: backoff.Microseconds()})
	h.Timeline.AddCounter(at, h.met.retrySeries, 1)
}

// FetchTimeout reports a fetch of pages pages abandoned at now after
// waiting dur in retries.
func (h *Hub) FetchTimeout(now simtime.Time, dur time.Duration, container, fn string, pages int) {
	h.met.fetchTimeout.Inc()
	h.Timeline.AddCounter(now, h.met.timeoutSeries, 1)
	h.trace(Event{At: now, Dur: dur, Kind: KindFetchTimeout, Actor: container, Fn: fn, Value: int64(pages)})
}

// DegradedEdge reports the pool entering (healthy false) or leaving degraded
// mode.
func (h *Hub) DegradedEdge(now simtime.Time, healthy bool) {
	h.met.degraded.Inc()
	kind, unhealthy := KindDegradedEnter, int64(1)
	if healthy {
		kind, unhealthy = KindDegradedExit, 0
	}
	h.trace(Event{At: now, Kind: kind, Actor: "pool"})
	h.Timeline.SetGauge(now, now, h.met.unhealthySeries, unhealthy)
}

// FaultWindow reports one scheduled fault-plan window [start, end) of kind
// (a faultinject.Kind) at severity factor.
func (h *Hub) FaultWindow(start, end simtime.Time, kind int, factor float64) {
	h.trace(Event{
		At: start, Dur: time.Duration(end - start), Kind: KindFaultWindow, Actor: "faultplan",
		Value: int64(factor * 100), Aux: int64(kind),
	})
}
