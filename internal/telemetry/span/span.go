// Package span is the causal layer on top of the flat event tracer: it
// records one *span tree* per completed invocation — request queueing,
// cold-start launch, init, execution, with child spans for remote-fault
// stalls, link-backlog waits, and semi-warm restores — plus the background
// link work (Pucket offloads, rollback re-offloads, semi-warm drains) that
// competes with those stalls for wire time.
//
// The package answers the question the paper's latency claims hinge on
// (Fig. 2's DAMON latency damage, Fig. 12's memory-vs-latency headline,
// §6.1's semi-warm P99): *which phase does each percentile of end-to-end
// latency come from?* The attribution engine in attrib.go turns recorded
// trees into per-phase P50/P95/P99 breakdowns whose columns sum back to the
// end-to-end latency they decompose.
//
// Design constraints match the tracer's:
//
//   - The disabled path is free. A nil *Recorder is a fully functional
//     no-op; telemetry.Hub builds a request's tree only when this recorder
//     or the exemplar recorder is on, so the platform pays only a nil check
//     per request when both are off (verified by BenchmarkDisabledSpans and
//     TestDisabledSpansZeroAlloc).
//   - Bounded memory. Completed invocations and background spans live in
//     fixed-capacity rings; multi-hour runs overwrite the oldest.
//   - Virtual time only. Every timestamp is simtime.Time, so the span trees
//     of a seeded run are bit-identical across machines and worker widths.
package span

import (
	"fmt"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/ring"
)

// Phase labels one segment of an invocation's critical path.
type Phase uint8

// The phases of an invocation, in causal order. PhaseOther absorbs any
// residue a parent span's children do not cover, keeping phase sums exactly
// equal to end-to-end latency.
const (
	// PhaseOther is uncovered parent time (normally zero).
	PhaseOther Phase = iota
	// PhaseRequest is the root span: request arrival to completion.
	PhaseRequest
	// PhaseQueue is time spent waiting for a busy container. The
	// simulator scales out without limit, so it never records one; the
	// phase keeps its place because run files store phases by index.
	PhaseQueue
	// PhaseLaunch is the cold-start runtime-load phase.
	PhaseLaunch
	// PhaseInit is the cold-start function-initialization phase.
	PhaseInit
	// PhaseExec is the execution phase (its self-time is pure compute).
	PhaseExec
	// PhaseFaultStall is a remote-fault stall on the critical path of a
	// warm or cold request.
	PhaseFaultStall
	// PhaseRestore is a remote-fault stall recalling pages a semi-warm
	// container had offloaded — the §6 semi-warm restore cost.
	PhaseRestore
	// PhaseBacklog is the share of a stall attributable to link queueing:
	// offload/rollback backlog occupying the wire past its saturation point.
	PhaseBacklog
	// PhaseRetry is the backoff wait a request spent retrying page fetches
	// against an unhealthy pool link (fault-injection recovery).
	PhaseRetry
	// PhaseFallback is the local-swap read time serving pages whose pool
	// fetch timed out (fault-injection recovery).
	PhaseFallback
	// PhaseStateIn is the time a workflow stage spent mapping its upstream
	// shared-state region from the pool (state-passing input latency).
	PhaseStateIn
	// PhaseStateOut is the time a workflow stage spent producing its output
	// region into the pool (or re-initializing state when pool-backed
	// passing is off or the region was lost).
	PhaseStateOut
	// NumPhases bounds Phase-indexed arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseOther:      "other",
	PhaseRequest:    "request",
	PhaseQueue:      "queue",
	PhaseLaunch:     "launch",
	PhaseInit:       "init",
	PhaseExec:       "exec",
	PhaseFaultStall: "fault-stall",
	PhaseRestore:    "restore",
	PhaseBacklog:    "backlog",
	PhaseRetry:      "retry",
	PhaseFallback:   "fallback",
	PhaseStateIn:    "state-in",
	PhaseStateOut:   "state-out",
}

// String names the phase for tables and trace viewers.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the phase with the given String(), or (PhaseOther,
// false) for unknown names.
func PhaseByName(name string) (Phase, bool) {
	for p, n := range phaseNames {
		if n == name {
			return Phase(p), true
		}
	}
	return PhaseOther, false
}

// StartKind labels how a request found its container: the platform's
// request start paths.
type StartKind uint8

// The start kinds.
const (
	// Cold launched a fresh container.
	Cold StartKind = iota
	// Warm reused an idle container with its hot set local.
	Warm
	// SemiWarm reused a container that had offloaded part of its memory.
	SemiWarm
	// Queued waited for a busy container. Like PhaseQueue it is never
	// recorded and keeps its place for the run-file format.
	Queued
	numStartKinds
)

var startKindNames = [numStartKinds]string{
	Cold: "cold", Warm: "warm", SemiWarm: "semi-warm", Queued: "queued",
}

// String names the start kind.
func (k StartKind) String() string {
	if int(k) < len(startKindNames) {
		return startKindNames[k]
	}
	return "unknown"
}

// startKindByName is the inverse of StartKind.String.
func startKindByName(name string) (StartKind, bool) {
	for k, n := range startKindNames {
		if n == name {
			return StartKind(k), true
		}
	}
	return 0, false
}

// Span is one node of an invocation's tree: a phase occupying [Start,
// Start+Dur) of the virtual timeline. Children must lie within their parent;
// a parent's *self time* is its duration minus its children's.
type Span struct {
	// Phase labels the segment.
	Phase Phase `json:"phase"`
	// Start is the span's virtual start time.
	Start simtime.Time `json:"start"`
	// Dur is the span length.
	Dur time.Duration `json:"dur"`
	// Pages is the phase-specific quantity: faulted+readahead pages for
	// stalls/restores, bytes queued on the link for backlog waits.
	Pages int64 `json:"pages,omitempty"`
	// Children are the nested sub-spans, in start order.
	Children []Span `json:"children,omitempty"`
}

// SelfDur returns the span's duration not covered by its children. It can
// go negative if children overlap their parent's edges; attribution keeps
// the raw value so phase sums stay exact.
func (s Span) SelfDur() time.Duration {
	d := s.Dur
	for _, c := range s.Children {
		d -= c.Dur
	}
	return d
}

// Invocation is one completed request's span tree.
type Invocation struct {
	// Function and Container identify where the request ran.
	Function  string `json:"function"`
	Container string `json:"container"`
	// Kind is the start path the request took.
	Kind StartKind `json:"kind"`
	// Root is the request span (arrival → completion); its children are the
	// phases.
	Root Span `json:"root"`
}

// Total is the invocation's end-to-end latency.
func (inv Invocation) Total() time.Duration { return inv.Root.Dur }

// Validate reports a start kind or a span phase, anywhere in the tree, that
// is out of range, as an invocation decoded from a file can hold. Phase- and
// kind-indexed attribution needs both in range.
func (inv Invocation) Validate() error {
	if inv.Kind >= numStartKinds {
		return fmt.Errorf("span: invocation %q: start kind %d out of range", inv.Container, inv.Kind)
	}
	var check func(s Span) error
	check = func(s Span) error {
		if s.Phase >= NumPhases {
			return fmt.Errorf("span: invocation %q: phase %d out of range", inv.Container, s.Phase)
		}
		for _, c := range s.Children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(inv.Root)
}

// BackgroundKind labels link work not on any single request's critical path.
type BackgroundKind uint8

// The background span kinds.
const (
	// BGOffload is a bulk offload transfer occupying the link (§5.1 reactive,
	// §5.2 window-based, and post-rollback re-offloads).
	BGOffload BackgroundKind = iota
	// BGRollback is a §5.3 rollback cycle demoting hot-pool pages (local
	// work, but it seeds the next offload wave).
	BGRollback
	// BGSemiWarm is a completed §6 semi-warm drain period.
	BGSemiWarm
	numBGKinds
)

var bgKindNames = [numBGKinds]string{
	BGOffload: "offload", BGRollback: "rollback", BGSemiWarm: "semi-warm",
}

// String names the background kind.
func (k BackgroundKind) String() string {
	if int(k) < len(bgKindNames) {
		return bgKindNames[k]
	}
	return "unknown"
}

// Background is one span of link-occupying (or link-seeding) policy work.
type Background struct {
	// Kind labels the work.
	Kind BackgroundKind `json:"kind"`
	// Function and Container identify the origin.
	Function  string `json:"function"`
	Container string `json:"container"`
	// Start and Dur place the work on the virtual timeline (Dur 0 for
	// instantaneous bookkeeping like rollbacks).
	Start simtime.Time  `json:"start"`
	Dur   time.Duration `json:"dur"`
	// Bytes is the data volume involved.
	Bytes int64 `json:"bytes"`
}

// DefaultCapacity is the invocation-ring size used when none is given.
const DefaultCapacity = 1 << 15

// Recorder collects completed invocation trees and background spans into
// fixed-capacity rings. A nil *Recorder is the disabled recorder: every
// method is a zero-allocation no-op, so the platform instruments
// unconditionally. Construct with NewRecorder.
type Recorder struct {
	mu   sync.Mutex
	invs ring.Ring[Invocation]
	bg   ring.Ring[Background]
}

// NewRecorder creates a recorder holding at most capacity invocations (and
// as many background spans); capacity <= 0 selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		invs: ring.New[Invocation](capacity),
		bg:   ring.New[Background](capacity),
	}
}

// Record stores one completed invocation, overwriting the oldest once the
// ring is full. Safe for concurrent use; no-op on a nil recorder.
func (r *Recorder) Record(inv Invocation) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.invs.Push(inv)
	r.mu.Unlock()
}

// RecordBackground stores one background span, same ring semantics as
// Record. No-op on a nil recorder.
func (r *Recorder) RecordBackground(bg Background) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bg.Push(bg)
	r.mu.Unlock()
}

// Invocations returns a copy of the held invocations in recording order
// (completion order on the virtual clock within one engine).
func (r *Recorder) Invocations() []Invocation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.invs.Items()
}

// Backgrounds returns a copy of the held background spans in recording
// order.
func (r *Recorder) Backgrounds() []Background {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bg.Items()
}
