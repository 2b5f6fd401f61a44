package core

import (
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
)

// Pucket (Page Bucket) is the paper's §4 structure: the pages allocated
// between two time barriers, which are one contiguous range. Its *inactive
// list* is the set of its pages still in the Inactive state; pages accessed
// after sealing join the shared hot page pool (the Hot state) and can be
// rolled back for re-evaluation (§5.3).
type Pucket struct {
	// Seg is the page range the barrier sealed.
	Seg pagemem.Range
	// sels is OffloadInactive's one-selection list: a list built per call
	// would escape through the View interface, so it lives with the Pucket.
	sels [1]pagemem.Selection
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
// victims are one selection, the Pucket's range in the Inactive state, so a
// fully hot or fully offloaded Pucket costs one walk over its few runs.
func (p *Pucket) OffloadInactive(e *simtime.Engine, v policy.View) int {
	p.sels[0] = pagemem.Selection{R: p.Seg, St: pagemem.Inactive}
	moved := v.OffloadPages(e, p.sels[:], 0)
	if moved > 0 {
		v.Telemetry().PucketOffload(e.Now(), v.ID(), v.FunctionID(), p.stage(v), moved)
	}
	return moved
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
// and returns the number of pages rolled back: two range calls, each
// costing the runs the Pucket overlaps.
func (p Pucket) Rollback(s *pagemem.Space) int {
	s.ClearAccessedRange(p.Seg, pagemem.Hot)
	return s.MoveRange(p.Seg, pagemem.Hot, pagemem.Inactive)
}
