package rmem

import (
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
)

// ClassCounts counts a described batch's pages per memnode.Class. Index with
// the memnode.Class constants.
type ClassCounts [memnode.NumClasses]int

// Total sums the per-class counts.
func (c ClassCounts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// OffloadDescribed offloads a batch described by provenance: owner names the
// compute-side container (rack-unique), fn its function, counts the pages per
// lifecycle class. With a memory node attached each class is admitted through
// dedup/quota/capacity and the accepted subset may be smaller than requested;
// without one the whole batch is accepted (or ErrPoolFull, matching
// OffloadBytes). Accepted pages cross the wire in full — dedup saves pool
// DRAM, not link bandwidth (the node merges after receipt, as in UPM-style
// page merging).
func (p *Pool) OffloadDescribed(now simtime.Time, owner, fn string, counts ClassCounts, pageBytes int64) (accepted ClassCounts, done simtime.Time, err error) {
	if p.node == nil {
		p.stageFlow(fn, counts, pageBytes)
		done, err = p.OffloadBytes(now, int64(counts.Total())*pageBytes)
		if err != nil {
			p.clearFlowStage()
			return ClassCounts{}, done, err
		}
		return counts, done, nil
	}
	if err := p.probeHealth(now); err != nil {
		return ClassCounts{}, now, err
	}
	comp0, spill0, merged0 := p.tierFlowsBefore()
	total := 0
	for cls := range counts {
		if counts[cls] == 0 {
			continue
		}
		acc := p.node.Offload(owner, fn, memnode.Class(cls), counts[cls])
		accepted[cls] = acc
		total += acc
	}
	p.recordTierFlows(now, fn, comp0, spill0, merged0, pageBytes)
	if total == 0 {
		return accepted, now, nil
	}
	p.stageFlow(fn, accepted, pageBytes)
	return accepted, p.commitOffload(now, int64(total)*pageBytes), nil
}

// FaultBatchOwner is FaultBatchDetail for a described batch of demand faults:
// with a memory node attached, the recalled pages' provenance releases the
// owner's holdings (freeing the resident copy on last reference) and the
// tier surcharge for compressed/spilled fractions is added to the stall.
func (p *Pool) FaultBatchOwner(now simtime.Time, owner, fn string, counts ClassCounts, pageBytes int64) FaultStall {
	var tier time.Duration
	if p.node != nil {
		for cls := range counts {
			if counts[cls] == 0 {
				continue
			}
			tier += p.node.Recall(owner, fn, memnode.Class(cls), counts[cls]).Latency
		}
	}
	p.stageFlow(fn, counts, pageBytes)
	return p.faultBatch(now, counts.Total(), pageBytes, tier)
}

// RecallDescribed is RecallBytes for a described batch (bulk recalls and
// swap readahead). The node's holdings are released; the tier latency is
// absorbed by the bulk transfer (readahead pages ride the cluster read off
// the request's critical path), so only the completion time is returned.
func (p *Pool) RecallDescribed(now simtime.Time, owner, fn string, counts ClassCounts, pageBytes int64) simtime.Time {
	if p.node != nil {
		for cls := range counts {
			if counts[cls] == 0 {
				continue
			}
			p.node.Recall(owner, fn, memnode.Class(cls), counts[cls])
		}
	}
	p.stageFlow(fn, counts, pageBytes)
	return p.RecallBytes(now, int64(counts.Total())*pageBytes)
}

// DiscardOwner drops a recycled container's remote bytes. With a memory node
// attached its described holdings are released too (refcounts drop; shared
// copies persist while other containers still reference them). bytes is the
// compute side's remote-byte count, which governs the pool's byte ledger; fn
// attributes the discard flow to the container's function (tenant).
func (p *Pool) DiscardOwner(now simtime.Time, owner, fn string, bytes int64) {
	if p.node != nil {
		p.node.DiscardOwner(owner)
	}
	p.stageFlowTenant(fn)
	p.Discard(now, bytes)
}
