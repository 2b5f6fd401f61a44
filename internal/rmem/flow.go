package rmem

import (
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file feeds the timeline's page byte-flow ledger. Every change to the
// pool's byte occupancy goes through move, which clamps the bytes, applies
// them, meters them, refreshes the pool gauge and calls recordFlow with the
// exact count it applied. recordFlow both accumulates the flow and
// checkpoints the resulting occupancy — the pair the conservation audit
// (timeseries.AuditFlows) verifies per window. Movements that leave
// occupancy unchanged (ShareRead, WriteBreakOwner's unmerge fetch) call
// recordFlow directly with a direction-0 kind.
//
// Attribution travels as arguments: the entry point knows the batch's
// tenant (fn) and per-class page counts and passes them down, so each flow
// lands under node "pool", the tenant and, when the pages are known, the
// page class.

// move applies one pool byte movement of kind at now and returns the bytes
// applied: an outflow is clamped to the bytes the pool holds, occupancy
// moves by kind's direction, meter (nil when nothing crosses the wire)
// records the bytes, the pool gauge is refreshed and the flow is recorded
// under fn's provenance (see recordFlow).
func (p *Pool) move(now simtime.Time, kind timeseries.FlowKind, meter *Meter, fn string, counts ClassCounts, bytes int64) int64 {
	dir := int64(kind.Direction())
	if dir < 0 && bytes > p.used {
		bytes = p.used
	}
	p.used += dir * bytes
	if meter != nil {
		meter.Record(now, bytes)
	}
	p.tel.PoolUsed(p.used)
	p.recordFlow(now, kind, fn, counts, bytes)
	return bytes
}

// recordFlow accumulates bytes of flow kind at now into the ledger and
// checkpoints the pool's occupancy. bytes must be exactly what the caller
// applied to p.used (after clamping); the conservation audit holds the two
// to account. The bytes are split per page class by counts under tenant fn,
// capped so the recorded total equals bytes even when the caller clamped the
// batch; with no counts (DiscardOwner knows bytes, not pages) they are
// attributed to fn alone.
func (p *Pool) recordFlow(now simtime.Time, kind timeseries.FlowKind, fn string, counts ClassCounts, bytes int64) {
	tl := p.tel.Timeline
	if tl == nil {
		return
	}
	if counts == (ClassCounts{}) {
		tl.AddFlow(now, kind, timeseries.Dims{Node: "pool", Tenant: fn}, bytes)
	} else {
		rem := bytes
		for cls, n := range counts {
			if rem <= 0 {
				break
			}
			if n == 0 {
				continue
			}
			b := min(int64(n)*pageBytes, rem)
			tl.AddFlow(now, kind, timeseries.Dims{
				Node: "pool", Tenant: fn, Class: memnode.Class(cls).String(),
			}, b)
			rem -= b
		}
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
func (p *Pool) recordTierFlows(now simtime.Time, fn string, compBefore, spillBefore, mergedBefore int64) {
	tl := p.tel.Timeline
	if tl == nil || p.node == nil {
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
