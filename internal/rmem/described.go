package rmem

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
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
// without one the whole batch is accepted, or nothing with ErrPoolFull when
// it would exceed Capacity (pages then stay local; the paper leaves
// rescheduling of this case as future work). Accepted pages cross the wire in
// full — dedup saves pool DRAM, not link bandwidth (the node merges after
// receipt, as in UPM-style page merging). [start, done) is the link window
// the transfer reserved; both are now when nothing crossed the wire.
func (p *Pool) OffloadDescribed(now simtime.Time, owner, fn string, counts ClassCounts) (accepted ClassCounts, start, done simtime.Time, err error) {
	bytes := int64(counts.Total()) * pageBytes
	if bytes < 0 {
		panic(fmt.Sprintf("rmem: negative offload %d", bytes))
	}
	if p.node == nil && bytes == 0 {
		return counts, now, now, nil
	}
	if err := p.probeHealth(now); err != nil {
		return ClassCounts{}, now, now, err
	}
	if p.node == nil {
		if p.cfg.Capacity > 0 && p.used+bytes > p.cfg.Capacity {
			return ClassCounts{}, now, now, ErrPoolFull
		}
		accepted = counts
	} else {
		for cls, n := range counts {
			if n != 0 {
				accepted[cls] = p.node.Offload(owner, fn, memnode.Class(cls), n)
			}
		}
		p.noteNode(now, fn)
		if accepted.Total() == 0 {
			return accepted, now, now, nil
		}
		bytes = int64(accepted.Total()) * pageBytes
	}
	start, done = p.reserve(now, bytes)
	p.move(now, timeseries.FlowOffload, p.meter[Offload], fn, accepted, bytes)
	p.tel.LinkBytes(now, int(Offload), bytes, start, time.Duration(done-start))
	return accepted, start, done, nil
}

// faultBatchOwner performs a described batch of demand faults during one
// request execution (FetchRetry's fetch). Fetches pipeline FaultPipeline-deep, so the request
// observes one FaultLatency per pipeline-full plus the wire time of the
// data, with saturation inflation once the link is busy. The pages' bytes
// leave the pool. With a memory node attached, the recalled pages'
// provenance releases the owner's holdings (freeing the resident copy on
// last reference) and the tier surcharge for compressed/spilled fractions is
// added to the stall.
func (p *Pool) faultBatchOwner(now simtime.Time, owner, fn string, counts ClassCounts) FaultStall {
	n := counts.Total()
	if n < 0 {
		panic("rmem: negative fault batch")
	}
	tier := p.nodeRecall(now, owner, fn, counts)
	if n == 0 {
		return FaultStall{}
	}
	bytes := p.move(now, timeseries.FlowFault, p.meter[Recall], fn, counts, int64(n)*pageBytes)
	p.tel.LinkBytes(now, int(Recall), bytes, 0, 0)
	return p.demandFetch(now, n, bytes, tier)
}

// RecallDescribed moves a described batch back from the pool in bulk (swap
// readahead, prefetching a semi-warm container's hot set) and returns the
// completion time. The node's holdings are released; the tier latency is
// absorbed by the bulk transfer (readahead pages ride the cluster read off
// the request's critical path).
func (p *Pool) RecallDescribed(now simtime.Time, owner, fn string, counts ClassCounts) simtime.Time {
	bytes := int64(counts.Total()) * pageBytes
	if bytes < 0 {
		panic(fmt.Sprintf("rmem: negative recall %d", bytes))
	}
	p.nodeRecall(now, owner, fn, counts)
	if bytes == 0 {
		return now
	}
	bytes = p.move(now, timeseries.FlowRecall, p.meter[Recall], fn, counts, bytes)
	start, done := p.reserve(now, bytes)
	p.tel.LinkBytes(now, int(Recall), bytes, start, time.Duration(done-start))
	return done
}

// DiscardOwner drops a recycled container's remote bytes without a
// transfer. With a memory node attached its described holdings are released
// too (refcounts drop; shared copies persist while other containers still
// reference them). bytes is the compute side's remote-byte count, which
// governs the pool's byte ledger; fn attributes the discard flow to the
// container's function (tenant), stamped at now.
func (p *Pool) DiscardOwner(now simtime.Time, owner, fn string, bytes int64) {
	if p.node != nil {
		p.node.DiscardOwner(owner)
		p.noteNode(now, fn)
	}
	p.move(now, timeseries.FlowDiscard, nil, fn, ClassCounts{}, bytes)
}

// nodeRecall releases a described batch's holdings on the memory node and
// returns the tier surcharge for its compressed/spilled fractions (zero
// without a node).
func (p *Pool) nodeRecall(now simtime.Time, owner, fn string, counts ClassCounts) time.Duration {
	if p.node == nil {
		return 0
	}
	var tier time.Duration
	for cls, n := range counts {
		if n != 0 {
			tier += p.node.Recall(owner, fn, memnode.Class(cls), n).Latency
		}
	}
	p.noteNode(now, fn)
	return tier
}
