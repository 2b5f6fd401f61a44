// Package telemetry is the simulator's zero-dependency observability layer:
// typed, timestamped event tracing on the virtual clock plus a registry of
// live counters and gauges, with exporters for Chrome trace-event JSON
// (Perfetto / chrome://tracing), Prometheus text format, and human-readable
// dumps. Hub bundles the tracer and registry with the span, timeseries and
// exemplar recorders into the one handle a simulation is instrumented with,
// and its emit methods are the one point each occurrence is reported from.
//
// Design constraints, in order:
//
//   - The disabled path must be free. A nil *Tracer and nil *Metric are
//     fully functional no-ops, so subsystems instrument unconditionally and
//     pay a nil check — zero allocations, no branches on config structs —
//     when telemetry is off (verified by BenchmarkDisabledTracer,
//     TestDisabledTracerZeroAlloc and TestEmitAllocFree).
//   - Bounded memory. The Tracer is a fixed-capacity ring: once full, the
//     oldest events are overwritten and counted in Dropped, so tracing a
//     multi-hour simulation cannot exhaust the host.
//   - Safe to share. The DES engine is single-threaded, but exporters run
//     outside it (the gateway's /metrics handler, cmd/experiments' parallel
//     workers), so the Tracer takes a mutex per record and metrics are
//     atomics.
//
// Events carry virtual timestamps (simtime.Time); nothing in this package
// reads the wall clock, so traces of a seeded run are bit-identical across
// machines.
package telemetry

import (
	"errors"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// Kind is the type of a traced event. Each kind maps to one mechanism of the
// paper (see DESIGN.md's Observability section for the full mapping).
type Kind uint8

// The event kinds emitted by the simulator.
const (
	// KindNone is the zero Kind; it is never emitted.
	KindNone Kind = iota
	// KindContainerLaunch marks a cold-started container coming into
	// existence.
	KindContainerLaunch
	// KindRuntimeLoaded spans the runtime-load phase of a cold start and
	// coincides with the Runtime–Init time barrier.
	KindRuntimeLoaded
	// KindInitDone spans function initialization and coincides with the
	// Init–Execution time barrier.
	KindInitDone
	// KindRequest spans one request execution (start → completion). Value is
	// the request's remote fault count; Aux encodes the start kind
	// (cold/warm/semi-warm/queued, the faas.StartKind values).
	KindRequest
	// KindRequestQueued marks a request queued behind the scale-out cap.
	KindRequestQueued
	// KindContainerIdle marks a container entering keep-alive.
	KindContainerIdle
	// KindContainerRecycle marks keep-alive expiry tearing a container down.
	// Value is the remote bytes discarded with it.
	KindContainerRecycle
	// KindContainerEvict marks a forced recycle by the node memory limit.
	KindContainerEvict
	// KindBarrierInsert marks a Pucket time barrier (an MGLRU generation
	// seal). Stage names the sealed segment; Value is the pages stamped.
	KindBarrierInsert
	// KindPageOffload marks pages moving local → pool. Stage names the
	// segment the pages belong to; Value is the page count.
	KindPageOffload
	// KindPucketOffload marks a Pucket draining its inactive list (the §5.1
	// reactive and §5.2 window-based offloads). Value is the pages moved;
	// Aux is the backing MGLRU generation.
	KindPucketOffload
	// KindPageFault spans a remote-fault stall on a request's critical path.
	// Value is the faulting page count; Aux is the readahead pages recalled
	// alongside.
	KindPageFault
	// KindRollback marks a §5.3 periodic rollback demoting hot-pool pages
	// back to their Puckets. Value is the pages rolled back.
	KindRollback
	// KindWindowFixed marks the §5.2 request-window being sealed. Value is
	// the chosen window size.
	KindWindowFixed
	// KindSemiWarmEnter marks a container entering the §6 semi-warm period.
	KindSemiWarmEnter
	// KindSemiWarmExit spans the completed semi-warm period (enter → reuse
	// or recycle).
	KindSemiWarmExit
	// KindLinkTransfer spans a bulk transfer occupying the pool link. Value
	// is the bytes moved; Aux is the rmem.Direction (0 offload, 1 recall).
	KindLinkTransfer
	// KindLinkSaturation marks a fault served while link utilization was
	// past the saturation point. Value is utilization in percent.
	KindLinkSaturation
	// KindFaultWindow spans one scheduled fault-plan window. Aux is the
	// faultinject.Kind; Value is the severity factor ×100 (0 for binary
	// kinds).
	KindFaultWindow
	// KindDegradedEnter marks the pool entering degraded mode (link down
	// or pool node crashed): offload paused, AcceptableBytes clamped.
	KindDegradedEnter
	// KindDegradedExit marks the pool leaving degraded mode.
	KindDegradedExit
	// KindFetchRetry marks one backoff retry of a failed page fetch. Value
	// is the attempt number; Aux is the backoff wait in microseconds.
	KindFetchRetry
	// KindFetchTimeout marks a page fetch abandoned after exhausting its
	// retry budget or per-container timeout. Value is the page count.
	KindFetchTimeout
	// KindLocalFallback marks a timed-out fetch served from the local swap
	// copy instead of the pool. Value is the pages read locally.
	KindLocalFallback
	// KindColdReinit marks a container discarded and cold re-initialized
	// because its remote pages were unreachable past the fetch timeout.
	KindColdReinit
	numKinds
)

var kindNames = [numKinds]string{
	KindNone:             "none",
	KindContainerLaunch:  "container-launch",
	KindRuntimeLoaded:    "runtime-loaded",
	KindInitDone:         "init-done",
	KindRequest:          "request",
	KindRequestQueued:    "request-queued",
	KindContainerIdle:    "container-idle",
	KindContainerRecycle: "container-recycle",
	KindContainerEvict:   "container-evict",
	KindBarrierInsert:    "barrier-insert",
	KindPageOffload:      "page-offload",
	KindPucketOffload:    "pucket-offload",
	KindPageFault:        "page-fault",
	KindRollback:         "rollback",
	KindWindowFixed:      "window-fixed",
	KindSemiWarmEnter:    "semiwarm-enter",
	KindSemiWarmExit:     "semiwarm-exit",
	KindLinkTransfer:     "link-transfer",
	KindLinkSaturation:   "link-saturation",
	KindFaultWindow:      "fault-window",
	KindDegradedEnter:    "degraded-enter",
	KindDegradedExit:     "degraded-exit",
	KindFetchRetry:       "fetch-retry",
	KindFetchTimeout:     "fetch-timeout",
	KindLocalFallback:    "local-fallback",
	KindColdReinit:       "cold-reinit",
}

// String names the kind for dumps and trace viewers.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Stage labels which lifecycle segment of a container an event concerns —
// the paper's Runtime Pucket, Init Pucket, or unmonitored execution segment.
type Stage uint8

// The lifecycle stages.
const (
	// StageNone is for events without a segment association.
	StageNone Stage = iota
	// StageRuntime is the runtime segment (Runtime Pucket).
	StageRuntime
	// StageInit is the init segment (Init Pucket).
	StageInit
	// StageExec is the unmonitored execution segment.
	StageExec
	// StageShared is a shared-state region segment (pool-backed workflow
	// state; mirrors memnode.ClassShared).
	StageShared
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageRuntime:
		return "runtime"
	case StageInit:
		return "init"
	case StageExec:
		return "exec"
	case StageShared:
		return "shared"
	default:
		return ""
	}
}

// Event is one traced occurrence on the virtual timeline. Events with
// Dur > 0 are spans (At is the span start); events with Dur == 0 are
// instants.
type Event struct {
	// At is the event's virtual time (span start for durable events).
	At simtime.Time
	// Dur is the span length, 0 for instant events.
	Dur time.Duration
	// Value is the kind-specific primary quantity (pages, bytes, window…).
	Value int64
	// Aux is the kind-specific secondary quantity.
	Aux int64
	// Actor is the track the event belongs to: a container ID, "link", or
	// "node".
	Actor string
	// Fn is the function the event concerns, if any.
	Fn string
	// Kind is the event type.
	Kind Kind
	// Stage is the lifecycle segment the event concerns, if any.
	Stage Stage
}

// DefaultCapacity is the tracer ring size used when none is given: 64 Ki
// events ≈ 4.5 MB.
const DefaultCapacity = 1 << 16

// Tracer records events into a fixed-capacity ring. A nil *Tracer is the
// disabled tracer. Events reach it only through the Hub's emit methods
// (emit.go), so each occurrence is traced from the one point that also feeds
// the other sinks. Construct with NewTracer.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  int    // write position once the ring is full
	total uint64 // events ever recorded
}

// NewTracer creates a tracer holding at most capacity events; capacity <= 0
// selects DefaultCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// record stores one event, overwriting the oldest once the ring is full.
// Safe for concurrent use; no-op on a nil tracer.
func (t *Tracer) record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Total returns how many events were ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.ring))
}

// Events returns a copy of the held events in recording order. Exporters
// sort by At themselves: link-transfer spans are recorded at reservation
// time but may start later than subsequently recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Cap returns the ring capacity (0 on nil), so a shard tracer can be sized
// like the sink it will merge into.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// MergeFrom appends src's retained events to t in their recorded order and
// carries src's drop count over, so shard tracers folded back into a shared
// sink in a fixed order yield the same ring a serial run would. No-op when
// either side is nil or both are the same tracer.
func (t *Tracer) MergeFrom(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	dropped := src.Dropped()
	for _, ev := range src.Events() {
		t.record(ev)
	}
	if dropped > 0 {
		t.mu.Lock()
		t.total += dropped
		t.mu.Unlock()
	}
}

// Reset drops all held events and the drop counter, keeping the capacity.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.total = 0
	t.mu.Unlock()
}

// Hub is the one instrumentation handle a simulation is given: every sink
// the simulator records into travels in it, from the CLIs and the gateway
// through experiments.Scenario and faas.Config down to the platform, and
// every occurrence the simulator reports is one of its emit methods
// (emit.go), called on a hub bound by Attach. The zero Hub is fully
// disabled; every field may be nil independently, and each emit method pays
// one nil check per sink it feeds (a timeline-only run does no tracer work).
type Hub struct {
	// Tracer receives typed events; nil disables tracing.
	Tracer *Tracer
	// Reg hosts counters and gauges; nil disables metrics.
	Reg *Registry
	// Spans receives one causal span tree per completed request for
	// latency attribution; nil disables span recording.
	Spans *span.Recorder
	// Timeline rolls requests, latencies, page traffic and recovery into
	// per-window series and the byte-flow ledger; nil disables it.
	Timeline *timeseries.Recorder
	// Exemplars retains the worst-K span trees per (window, node, tenant);
	// nil disables it.
	Exemplars *exemplar.Recorder

	// node and met are bound by Attach: the emitter's node label and its
	// resolved registry handles (all nil without a registry).
	node string
	met  handles
}

var defaultHub struct {
	mu sync.RWMutex
	h  Hub
}

// SetDefault installs the process-wide fallback hub used by runs that were
// not given a sink explicitly (cmd/experiments wires its -trace, -attrib,
// -timeline and -exemplars flags here so every harness is captured without
// threading a hub through each figure).
func SetDefault(h Hub) {
	defaultHub.mu.Lock()
	defaultHub.h = h
	defaultHub.mu.Unlock()
}

// Default returns the process-wide fallback hub (zero Hub when unset).
func Default() Hub {
	defaultHub.mu.RLock()
	defer defaultHub.mu.RUnlock()
	return defaultHub.h
}

// OrDefault fills each sink h leaves nil from the process default. Tracer and
// Reg are one sink for this purpose: they fall back together, and only when
// both are nil. A sink h sets is never replaced.
func (h Hub) OrDefault() Hub {
	def := Default()
	if h.Tracer == nil && h.Reg == nil {
		h.Tracer, h.Reg = def.Tracer, def.Reg
	}
	if h.Spans == nil {
		h.Spans = def.Spans
	}
	if h.Timeline == nil {
		h.Timeline = def.Timeline
	}
	if h.Exemplars == nil {
		h.Exemplars = def.Exemplars
	}
	return h
}

// Shard resolves h against the process default for one of several
// concurrently running simulations. It returns the hub to run with, which is
// h.OrDefault() except that every sink taken from the default is replaced by
// a private one of the same capacity and configuration, and the hub of those
// private sinks alone, to be folded back with Default().MergeFrom once every
// simulation is done. The registry stays shared: its counters are atomic and
// order-independent.
func (h Hub) Shard() (run, shard Hub) {
	run = h.OrDefault()
	if run.Tracer != h.Tracer {
		shard.Tracer = NewTracer(run.Tracer.Cap())
		run.Tracer = shard.Tracer
	}
	if run.Spans != h.Spans {
		shard.Spans = span.NewRecorder(run.Spans.Cap())
		run.Spans = shard.Spans
	}
	if run.Timeline != h.Timeline {
		shard.Timeline = timeseries.NewRecorder(run.Timeline.Config())
		run.Timeline = shard.Timeline
	}
	if run.Exemplars != h.Exemplars {
		shard.Exemplars = exemplar.NewRecorder(run.Exemplars.Config())
		run.Exemplars = shard.Exemplars
	}
	return run, shard
}

// MergeFrom folds src's tracer, spans, timeline and exemplars into h's, in
// that order; the registry is not touched. Shards merged in a fixed order
// yield the same sink contents a serial run would. Nil sinks on either side
// are skipped; the error joins any timeline or exemplar configuration
// mismatch.
func (h Hub) MergeFrom(src Hub) error {
	h.Tracer.MergeFrom(src.Tracer)
	h.Spans.MergeFrom(src.Spans)
	return errors.Join(h.Timeline.MergeFrom(src.Timeline), h.Exemplars.MergeFrom(src.Exemplars))
}
