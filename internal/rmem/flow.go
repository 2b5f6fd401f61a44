package rmem

import (
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file feeds the timeline's page byte-flow ledger. Every mutation of
// the pool's byte occupancy (commitOffload, RecallBytes, faultBatch,
// Discard, RecallLocal, WriteBreakOwner's recalled remainder) calls
// recordFlow with the exact clamped byte count it applied, which both
// accumulates the flow and checkpoints the resulting occupancy — the pair
// the conservation audit (timeseries.AuditFlows) verifies per window.
//
// Attribution uses a staging pattern: the described wrappers (OffloadDescribed,
// FaultBatchOwner, RecallDescribed, DiscardOwner, RecallLocal) know the
// batch's tenant and per-class page counts but delegate the occupancy
// mutation to the low-level movers, which are also public entry points of
// their own. The wrapper stages its provenance just before delegating; the
// mover's recordFlow consumes it, splitting the clamped bytes per page class
// under the staged tenant. The DES engine is single-threaded, so a plain
// field carries the hand-off. Un-described calls fall back to the aggregate
// pool dimension.

// flowPending stages one described batch's provenance between a wrapper and
// the mover it delegates to.
type flowPending struct {
	active bool
	tenant string
	// counts/pageBytes describe the per-class split; pageBytes == 0 means
	// tenant-only attribution (DiscardOwner knows bytes, not pages).
	counts    ClassCounts
	pageBytes int64
}

// stageFlow stages per-class provenance for the next mover's flow record.
// No-op when no timeline is attached or the batch is empty — the guard
// matters because a staged batch the mover never consumes would leak into a
// later unrelated flow.
func (p *Pool) stageFlow(fn string, counts ClassCounts, pageBytes int64) {
	if p.tel.Timeline == nil || counts.Total() == 0 || pageBytes <= 0 {
		return
	}
	p.pend = flowPending{active: true, tenant: fn, counts: counts, pageBytes: pageBytes}
}

// stageFlowTenant stages tenant-only provenance (no per-class split).
func (p *Pool) stageFlowTenant(fn string) {
	if p.tel.Timeline == nil {
		return
	}
	p.pend = flowPending{active: true, tenant: fn}
}

// clearFlowStage drops staged provenance after a wrapper's delegate bailed
// out before mutating occupancy (health-probe or capacity error).
func (p *Pool) clearFlowStage() { p.pend.active = false }

// recordFlow accumulates bytes of flow kind at now into the ledger and
// checkpoints the pool's occupancy. bytes must be exactly what the caller
// applied to p.used (after clamping); the conservation audit holds the two
// to account. Staged provenance is consumed here: the bytes are split per
// page class under the staged tenant, capped so the recorded total equals
// the applied total even when the mover clamped the batch.
func (p *Pool) recordFlow(now simtime.Time, kind timeseries.FlowKind, bytes int64) {
	tl := p.tel.Timeline
	if tl == nil {
		return
	}
	if pend := p.pend; pend.active {
		p.pend.active = false
		switch {
		case pend.pageBytes > 0:
			rem := bytes
			for cls := range pend.counts {
				if rem <= 0 {
					break
				}
				if pend.counts[cls] == 0 {
					continue
				}
				b := int64(pend.counts[cls]) * pend.pageBytes
				if b > rem {
					b = rem
				}
				tl.AddFlow(now, kind, timeseries.Dims{
					Node: "pool", Tenant: pend.tenant, Class: memnode.Class(cls).String(),
				}, b)
				rem -= b
			}
			if rem > 0 {
				tl.AddFlow(now, kind, poolDims, rem)
			}
		default:
			tl.AddFlow(now, kind, timeseries.Dims{Node: "pool", Tenant: pend.tenant}, bytes)
		}
	} else {
		tl.AddFlow(now, kind, poolDims, bytes)
	}
	tl.FlowOccupancy(now, p.used)
}

// tierFlowsBefore snapshots the memory node's cumulative compressed/spilled/
// merged page counters ahead of a node call that may evict or merge (zeros
// when flows are off or no node is attached).
func (p *Pool) tierFlowsBefore() (comp, spill, merged int64) {
	if p.tel.Timeline == nil || p.node == nil {
		return 0, 0, 0
	}
	return p.node.CompressedPages(), p.node.SpilledPages(), p.node.MergedPages()
}

// recordTierFlows records the compress/spill/merge movement since
// tierFlowsBefore as zero-direction flows: bytes changing tier (or collapsing
// onto a widened merge master) inside the pool without changing occupancy.
// They are attributed to the tenant whose batch triggered the movement (the
// evicted pages themselves may belong to anyone).
func (p *Pool) recordTierFlows(now simtime.Time, fn string, compBefore, spillBefore, mergedBefore, pageBytes int64) {
	tl := p.tel.Timeline
	if tl == nil || p.node == nil || pageBytes <= 0 {
		return
	}
	if d := p.node.CompressedPages() - compBefore; d > 0 {
		tl.AddFlow(now, timeseries.FlowCompress,
			timeseries.Dims{Node: "pool", Tenant: fn}, d*pageBytes)
	}
	if d := p.node.SpilledPages() - spillBefore; d > 0 {
		tl.AddFlow(now, timeseries.FlowSpill,
			timeseries.Dims{Node: "pool", Tenant: fn}, d*pageBytes)
	}
	if d := p.node.MergedPages() - mergedBefore; d > 0 {
		tl.AddFlow(now, timeseries.FlowMerge,
			timeseries.Dims{Node: "pool", Tenant: fn, Class: memnode.ClassRuntime.String()}, d*pageBytes)
	}
}
