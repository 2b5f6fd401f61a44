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
// recordFlow directly with a direction-0 kind. The memory node's tier moves
// (compress, spill, merge) also leave occupancy unchanged; noteNode records
// them, with the node's metrics, after every node call.
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

// noteNode is the memory node's one emission point, called after every node
// call: it reads the node's Stats once, advances the hub's memnode metrics by
// the change since the last note, and records the compress, spill and merge
// flows from the same change under fn, the tenant whose call caused it
// (evicted pages may belong to anyone). The counts are cumulative, so a
// missed note is caught up at the next one. A pool without a node, or a hub
// without a registry and a timeline, pays nothing.
func (p *Pool) noteNode(now simtime.Time, fn string) {
	if p.node == nil || (p.tel.Reg == nil && p.tel.Timeline == nil) {
		return
	}
	cur := p.node.Stats()
	prev := &p.nodeSeen
	p.tel.MemNode(prev, &cur)
	tl, d := p.tel.Timeline, timeseries.Dims{Node: "pool", Tenant: fn}
	tl.AddFlow(now, timeseries.FlowCompress, d, (cur.CompressedPages-prev.CompressedPages)*pageBytes)
	tl.AddFlow(now, timeseries.FlowSpill, d, (cur.SpilledPages-prev.SpilledPages)*pageBytes)
	d.Class = memnode.ClassRuntime.String()
	tl.AddFlow(now, timeseries.FlowMerge, d, (cur.MergedPages-prev.MergedPages)*pageBytes)
	p.nodeSeen = cur
}
