package rmem

import (
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file is the pool side of shared-state regions (internal/sharedmem):
// a consumer maps a region read-shared, pulling its bytes across the link
// like a demand-fault batch, but the pool keeps the resident copy so the
// next consumer can map the same region. Occupancy is therefore unchanged —
// the ledger records the movement as the direction-0 FlowShareRead so the
// conservation audit still holds bytes to account.

// ShareRead prices a read-shared mapping of pages held by owner (a region's
// synthetic owner) under tenant fn: pipelined demand fetches plus wire time
// plus the memnode tier surcharge for compressed/spilled fractions, with the
// same saturation inflation as FetchRetry. The pool's byte ledger and
// the owner's holdings are untouched. Returns an error while the remote path
// is down (fault plans); the caller replays the producer instead.
func (p *Pool) ShareRead(now simtime.Time, owner, fn string, pages int) (FaultStall, error) {
	if pages < 0 {
		panic("rmem: negative share read")
	}
	if pages == 0 {
		return FaultStall{}, nil
	}
	if err := p.probeHealth(now); err != nil {
		return FaultStall{}, err
	}
	var tier time.Duration
	if p.node != nil {
		tier = p.node.ReadCost(owner, fn, memnode.ClassShared, pages).Latency
		p.noteNode(now, fn)
	}
	total := int64(pages) * pageBytes
	p.meter[Recall].Record(now, total)
	var shared ClassCounts
	shared[memnode.ClassShared] = pages
	p.recordFlow(now, timeseries.FlowShareRead, fn, shared, total)
	stall := p.demandFetch(now, pages, total, tier)
	p.tel.LinkBytes(now, int(Recall), total, now, stall.Total)
	return stall, nil
}
