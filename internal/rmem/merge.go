package rmem

import (
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// This file is the pool side of copy-on-write unmerge: a container dirtied
// pages it held against a shared merge master (internal/memnode merge
// domains), so the write breaks the share — the master's content for those
// pages crosses the link to the writer, and a private copy is written back
// under the writing tenant. The pricing reuses the shared-region WriteBreak
// shape (internal/sharedmem): a ShareRead-like fetch of the dirty pages plus
// an offload-shaped commit for the private writeback.

// BreakOutcome is what a WriteBreakOwner call did and cost.
type BreakOutcome struct {
	// Stall is the critical-path latency the writing request observes:
	// pipelined fetch of the master content, wire time, tier surcharge
	// (waived on a shared-cache hit), saturation and fault-plan inflation,
	// plus the private writeback's commit wait.
	Stall FaultStall
	// Pages privatized on the node; the owner's remote holdings are
	// unchanged.
	Pages int
	// Recalled pages did not fit as a private copy; their bytes left the
	// pool and the caller must fold them back into local memory.
	Recalled int
}

// WriteBreakOwner prices dirtying pages the owner holds against a shared
// merge master under fn's tenant. Without a node, or when the pages are held
// privately (function-scope dedup hits its own master; dedup off), there is
// nothing to unmerge and the call is free. Returns an error while the remote
// path is down (fault plans); the caller treats the write as locally
// buffered and retries on a later request.
func (p *Pool) WriteBreakOwner(now simtime.Time, owner, fn string, class memnode.Class, pages int) (BreakOutcome, error) {
	if pages < 0 {
		panic("rmem: negative write break")
	}
	if pages == 0 || p.node == nil {
		return BreakOutcome{}, nil
	}
	if err := p.probeHealth(now); err != nil {
		return BreakOutcome{}, err
	}
	res := p.node.WriteBreak(owner, fn, class, pages)
	p.noteNode(now, fn)
	broke := res.Pages + res.Recalled
	if broke == 0 {
		return BreakOutcome{}, nil
	}

	// Fetch the master content backing the dirtied pages: pipelined demand
	// reads, like a fault batch, but occupancy is unchanged (direction-0
	// FlowUnmerge) — except for the recalled remainder, which leaves the
	// pool like a fault.
	fetch := int64(broke) * pageBytes
	p.meter[Recall].Record(now, fetch)
	var dirtied ClassCounts
	dirtied[class] = broke
	p.recordFlow(now, timeseries.FlowUnmerge, fn, dirtied, fetch)
	if out := min(int64(res.Recalled)*pageBytes, p.used); out > 0 {
		p.move(now, timeseries.FlowFault, nil, fn, ClassCounts{}, out)
	}
	stall := p.demandFetch(now, broke, fetch, res.Latency)

	// The private writeback rides the bulk offload link; the writer waits
	// for its commit like sharedmem's CoW break waits for the region copy.
	if res.Pages > 0 {
		wb := int64(res.Pages) * pageBytes
		_, done := p.reserve(now, wb)
		p.meter[Offload].Record(now, wb)
		p.tel.LinkBytes(now, int(Offload), wb, 0, 0)
		if done > now {
			stall.Total += time.Duration(done - now)
		}
	}
	p.tel.LinkBytes(now, int(Recall), fetch, now, stall.Total)
	return BreakOutcome{Stall: stall, Pages: res.Pages, Recalled: res.Recalled}, nil
}

// OwnerClassPages reports how many pages of one class the pool-side memory
// node still holds for owner (0 without a node) — the write-hot path's view
// of how much of the runtime segment is remote and thus breakable.
func (p *Pool) OwnerClassPages(owner, fn string, class memnode.Class) int {
	if p.node == nil {
		return 0
	}
	return p.node.OwnerPages(owner, fn, class)
}
