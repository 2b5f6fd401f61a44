package core

import (
	"math/bits"

	"github.com/faasmem/faasmem/internal/mglru"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
)

// Pucket (Page Bucket) is the paper's §4 structure: a contiguous page range
// sealed between two time barriers, implemented as one MGLRU generation. Its
// *inactive list* is the set of its pages still in the Inactive state; pages
// accessed after sealing move to the shared hot page pool (the youngest
// generation) and can be rolled back for re-evaluation (§5.3).
type Pucket struct {
	// Seg is the page range the barrier sealed.
	Seg pagemem.Range
	// Gen is the MGLRU generation backing the Pucket.
	Gen mglru.GenID
}

// InactivePages counts the Pucket's inactive list.
func (p Pucket) InactivePages(s *pagemem.Space) int {
	return s.CountInRange(p.Seg, pagemem.Inactive)
}

// HotPages counts this Pucket's pages currently in the hot page pool.
func (p Pucket) HotPages(s *pagemem.Space) int {
	return s.CountInRange(p.Seg, pagemem.Hot)
}

// RemotePages counts this Pucket's pages offloaded to the pool.
func (p Pucket) RemotePages(s *pagemem.Space) int {
	return s.CountInRange(p.Seg, pagemem.Remote)
}

// OffloadInactive offloads the whole inactive list through the view and
// returns how many pages actually moved (the pool/link may truncate). The
// victim scan walks the Inactive bitset word-at-a-time, so a fully hot or
// fully offloaded Pucket costs O(words).
func (p Pucket) OffloadInactive(e *simtime.Engine, v policy.View) int {
	n, _ := p.OffloadInactiveBuf(e, v, nil)
	return n
}

// OffloadInactiveBuf is OffloadInactive with a caller-owned scratch buffer:
// the victim word masks are built in buf (reused, grown as needed) and the
// grown buffer is returned for the next call, keeping steady-state Pucket
// offloads allocation-free.
func (p Pucket) OffloadInactiveBuf(e *simtime.Engine, v policy.View, buf []pagemem.WordMask) (int, []pagemem.WordMask) {
	victims, _ := v.Space().AppendWords(buf[:0], p.Seg, pagemem.Inactive, 0)
	if len(victims) == 0 {
		return 0, victims
	}
	moved := v.OffloadPages(e, victims)
	if moved > 0 {
		v.Telemetry().PucketOffload(e.Now(), v.ID(), v.FunctionID(), p.stage(v), moved, int64(p.Gen))
	}
	return moved, victims
}

// stage names the lifecycle segment this Pucket seals.
func (p Pucket) stage(v policy.View) telemetry.Stage {
	switch p.Seg {
	case v.RuntimeRange():
		return telemetry.StageRuntime
	case v.InitRange():
		return telemetry.StageInit
	default:
		return telemetry.StageNone
	}
}

// Rollback demotes every hot-pool page of this Pucket back to its inactive
// list (clearing access bits so the next request-window re-evaluates them)
// and returns the number of pages rolled back. Each 64-page word of hot
// pages moves with three word operations — state, access bits, generation —
// and words without hot pages cost one probe.
func (p Pucket) Rollback(s *pagemem.Space, lru *mglru.LRU) int {
	moved := 0
	for w := int(p.Seg.Start) / 64; w < (int(p.Seg.End)+63)/64; w++ {
		hot := s.StateWord(w, pagemem.Hot) & p.Seg.WordMask(w)
		if hot == 0 {
			continue
		}
		s.TransitionMasked(w, hot, pagemem.Hot, pagemem.Inactive)
		s.ClearAccessedMasked(w, hot)
		lru.DemoteMasked(pagemem.PageID(w*64), hot, p.Gen)
		moved += bits.OnesCount64(hot)
	}
	return moved
}
