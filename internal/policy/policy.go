// Package policy defines the interface between the serverless platform and
// a memory-offloading policy, plus the baseline policies the paper compares
// against: no offloading, TMO (feedback-based), and DAMON (sampling-based).
//
// A Policy is attached per container and receives lifecycle hooks at exactly
// the stage boundaries the paper's analysis is built on (runtime loaded,
// init done, request start/end, idle, recycle). Policies act on the
// container through the View interface; local→remote movement must go
// through View.OffloadPages so that node memory accounting, pool capacity,
// and link bandwidth are charged consistently, and what a policy reports goes
// through View.Telemetry's emit methods. Victims travel as
// pagemem.Selection lists — (range, state) pairs such as a Pucket's
// inactive list, a cold DAMON region's local pages or TMO's idle stretches
// — plus a page budget, never as per-page id lists.
//
// The page-table Accessed bits live here, not in pagemem: only the
// baselines that sample them (TMO's idle step, DAMON's two-phase checks)
// keep a bitset, filled from the Touched hook and from the segment hooks
// that follow each allocation. The paper's own mechanism never reads one.
package policy

import (
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/workload"
)

// View is the policy-facing surface of a container. It is implemented by
// the platform's container type.
type View interface {
	// ID is the container's unique identifier.
	ID() string
	// FunctionID names the function this container serves.
	FunctionID() string
	// Profile returns the workload profile of the function.
	Profile() *workload.Profile
	// Space returns the container's page-granularity address space.
	Space() *pagemem.Space
	// RuntimeRange is the page range of the runtime segment: the Runtime
	// Pucket. The platform inserts the Runtime-Init time barrier when the
	// runtime finishes loading and the Init-Execution barrier when
	// initialization completes; a barrier is the end of a segment's
	// allocation, so the pages between two barriers are one range, and
	// these two ranges are the paper's Puckets. A Pucket page accessed since
	// the last rollback is in the hot page pool: its state is Hot.
	RuntimeRange() pagemem.Range
	// InitRange is the page range of the init segment: the Init Pucket.
	InitRange() pagemem.Range
	// RequestsServed counts completed requests on this container.
	RequestsServed() int
	// Idle reports whether the container is in keep-alive (no request in
	// flight).
	Idle() bool
	// StallFraction estimates the recent share of request time spent waiting
	// on remote-memory faults — the simulation's stand-in for TMO's PSI.
	StallFraction() float64
	// OffloadPages moves the selected pages to the remote pool, charging
	// node memory accounting and link bandwidth. Pages are taken in (selection,
	// page) order up to max of them (max <= 0: no limit); a selected page
	// that is not local (inactive or hot) is skipped. The cost is a walk
	// over the runs each selection overlaps, so a policy that knows its
	// exact victims (TMO's idle stretches) passes them as Local selections. Selections must select
	// disjoint pages: a page selected twice would be counted, moved and
	// charged twice. It returns how many pages were actually offloaded;
	// fewer than selected means the budget, the pool or the link truncated
	// the batch.
	OffloadPages(e *simtime.Engine, sels []pagemem.Selection, max int) int
	// MemoryBytes is the container's local plus remote bytes, the kernel's
	// memory-cgroup memory.current: its page-state bytes plus the exec
	// segment charged to a request in flight.
	MemoryBytes() int64
	// OffloadScale returns the platform bandwidth governor's current factor
	// in (0, 1]: gradual offloaders multiply their per-tick budget by it so
	// that aggregate offload traffic stays within the link budget (§6.2).
	OffloadScale() float64
	// Telemetry returns the platform's attached telemetry hub, never nil.
	// Policies report their mechanism-level occurrences (Pucket drains,
	// window fixes, rollbacks, semi-warm transitions) through its emit
	// methods, one call per occurrence; the hub fans each out to whichever
	// sinks are on, so call sites need no guard.
	Telemetry() *telemetry.Hub
}

// Policy manufactures per-container policy instances.
type Policy interface {
	// Attach is called when a container launches and returns the hook
	// receiver for that container's lifetime.
	Attach(e *simtime.Engine, v View) ContainerPolicy
}

// ContainerPolicy receives a container's lifecycle hooks. Implementations
// must tolerate hooks after Recycle being absent (the platform never calls
// them) but should cancel their own timers in Recycle.
type ContainerPolicy interface {
	// RuntimeLoaded fires when the container runtime finished loading, right
	// after the Runtime-Init time barrier was inserted: the runtime segment
	// was allocated, so its pages were just written.
	RuntimeLoaded(e *simtime.Engine)
	// InitDone fires when function initialization completed, right after the
	// Init-Execution time barrier was inserted: the init segment was
	// allocated, so its pages were just written.
	InitDone(e *simtime.Engine)
	// Touched fires for each page range a request accesses, before the
	// platform promotes or faults in its pages: where a kernel would set
	// the pages' Accessed bits.
	Touched(r pagemem.Range)
	// RequestStart fires when a request begins executing on the container
	// (after the exec segment was charged).
	RequestStart(e *simtime.Engine)
	// RequestEnd fires when a request completes (after the exec segment was
	// uncharged).
	RequestEnd(e *simtime.Engine)
	// Idle fires when the container enters keep-alive.
	Idle(e *simtime.Engine)
	// Recycle fires when the container is torn down.
	Recycle(e *simtime.Engine)
}

// SemiWarmer is an optional ContainerPolicy extension: policies that
// implement a semi-warm period report whether the container is currently in
// it, letting the platform classify a reuse as a semi-warm start rather than
// a warm start.
type SemiWarmer interface {
	// InSemiWarm reports whether the container is in its semi-warm period.
	InSemiWarm() bool
}

// Base is a no-op ContainerPolicy for embedding: implementations override
// only the hooks they need.
type Base struct{}

// RuntimeLoaded implements ContainerPolicy.
func (Base) RuntimeLoaded(*simtime.Engine) {}

// InitDone implements ContainerPolicy.
func (Base) InitDone(*simtime.Engine) {}

// Touched implements ContainerPolicy.
func (Base) Touched(pagemem.Range) {}

// RequestStart implements ContainerPolicy.
func (Base) RequestStart(*simtime.Engine) {}

// RequestEnd implements ContainerPolicy.
func (Base) RequestEnd(*simtime.Engine) {}

// Idle implements ContainerPolicy.
func (Base) Idle(*simtime.Engine) {}

// Recycle implements ContainerPolicy.
func (Base) Recycle(*simtime.Engine) {}

// NoOffload is the paper's baseline: FaaSMem's platform with memory
// offloading disabled.
type NoOffload struct{}

// Attach implements Policy.
func (NoOffload) Attach(*simtime.Engine, View) ContainerPolicy { return Base{} }
