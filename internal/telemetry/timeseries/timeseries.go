// Package timeseries adds a time axis to the repository's observability
// stack: windowed rollups of counters, gauges, and latency samples, all
// bucketed on the virtual clock, plus a bounded flight recorder that keeps
// the last few windows of high-resolution events and dumps them when a
// fault-injection window opens or a latency SLO burn-rate alarm fires.
//
// The scalar registry (PR 1) and span attribution (PR 3) answer "how much,
// in total"; this package answers "when": what pool occupancy, fetch-retry
// rate, and P99 looked like *during* the 40–55 s fault window, per node,
// per tenant, per page class.
//
// Design constraints match the tracer's and the span recorder's:
//
//   - The disabled path is free. A nil *Recorder is a fully functional
//     no-op; every instrumentation site pays one nil check and zero
//     allocations when recording is off (BenchmarkDisabledTimeline,
//     TestDisabledTimelineZeroAlloc).
//   - Virtual time only. Windows are indexed by simtime.Time / Window, so a
//     seeded run produces bit-identical rollups at any -scenario-workers
//     width (each engine owns its recorder; the CI determinism gate diffs
//     ext-observe output across widths).
//   - Bounded memory. The flight recorder is a fixed-capacity overwrite-
//     oldest ring (package ring); dumps are capped at MaxDumps; latency
//     distributions use one power-of-two bucket array (package hist) per
//     (series, window).
//   - Resolve once, emit by handle. Series resolves a (name, Dims, kind)
//     triple to a SeriesID, the one lookup by key; the emit methods take
//     the ID. Each series keeps its cells in a dense slice indexed by
//     absolute window, so an emit into an existing cell hashes nothing and
//     allocates nothing (TestTimelineEmitAllocationFree). Cells are indexed
//     by window, not appended in arrival order, because windows are
//     revisited: a service-lifetime recorder (the gateway's) restarts
//     virtual time at 0 on every run. Memory is bounded by the highest
//     window a series has seen.
//   - Gauges are read, not emitted. A platform samples its occupancy
//     gauges with a simtime.Sampler, which fires once per quiet span (a run
//     of windows in which nothing else happens, so no reading can change),
//     and SetGauge records that one reading into every window of the span.
package timeseries

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/hist"
	"github.com/faasmem/faasmem/internal/telemetry/ring"
)

// Canonical series names. Subsystems and exporters share these constants so
// a timeline assembled from rmem, memnode, faas, cluster, and faultinject
// samples joins cleanly.
const (
	// SeriesRequests counts completed requests (counter, node+tenant).
	SeriesRequests = "requests_total"
	// SeriesColdStarts counts cold starts (counter, node+tenant).
	SeriesColdStarts = "cold_starts_total"
	// SeriesRequestLatency samples end-to-end latency in nanoseconds
	// (sample, node+tenant); feeds the SLO burn-rate alarm.
	SeriesRequestLatency = "request_latency_ns"
	// SeriesNodeLocalBytes gauges per-node local (DRAM) bytes.
	SeriesNodeLocalBytes = "node_local_bytes"
	// SeriesNodeRemoteBytes gauges per-node pool-resident bytes.
	SeriesNodeRemoteBytes = "node_remote_bytes"
	// SeriesLiveContainers gauges per-node live container count.
	SeriesLiveContainers = "live_containers"
	// SeriesPoolUsedBytes gauges pool occupancy.
	SeriesPoolUsedBytes = "pool_used_bytes"
	// SeriesPoolUnhealthy gauges the pool health probe (0 healthy, 1
	// degraded or down).
	SeriesPoolUnhealthy = "pool_unhealthy"
	// SeriesOffloadBytes counts bytes crossing the pool link node → pool
	// (counter, pool): bulk offloads and copy-on-write private writebacks.
	// It reads the same as faasmem_link_offload_bytes_total.
	SeriesOffloadBytes = "offload_bytes_total"
	// SeriesRecallBytes counts bytes crossing the pool link pool → node
	// (counter, pool): bulk recalls, demand-fault batches, copy-on-write
	// unmerge fetches and shared-region reads. It reads the same as
	// faasmem_link_recall_bytes_total.
	SeriesRecallBytes = "recall_bytes_total"
	// SeriesOffloadPages counts pages admitted to the pool per page class
	// (counter, node+tenant+class).
	SeriesOffloadPages = "offload_pages_total"
	// SeriesFetchRetries counts page-fetch retries against an unhealthy
	// link (counter).
	SeriesFetchRetries = "fetch_retries_total"
	// SeriesFetchTimeouts counts fetches abandoned after retry exhaustion
	// (counter).
	SeriesFetchTimeouts = "fetch_timeouts_total"
	// SeriesFallbackPages counts pages served from local swap after a
	// fetch timeout (counter, node+tenant).
	SeriesFallbackPages = "fallback_pages_total"
	// SeriesColdReinits counts containers cold re-initialized after an
	// unrecoverable fetch (counter, node+tenant).
	SeriesColdReinits = "cold_reinits_total"
	// SeriesRescheduledFault counts requests the cluster reran elsewhere
	// after a pool-fault abort (counter, rack-level).
	SeriesRescheduledFault = "rescheduled_fault_total"
	// SeriesDedupSavedPermille gauges memnode dedup savings in ‰ of
	// logical bytes.
	SeriesDedupSavedPermille = "dedup_saved_permille"
	// SeriesTenantQuotaPct gauges per-tenant quota pressure in percent of
	// the memnode tenant quota (gauge, tenant dimension).
	SeriesTenantQuotaPct = "tenant_quota_pct"
	// SeriesFaultActiveKinds gauges how many fault kinds have a window in
	// force.
	SeriesFaultActiveKinds = "fault_active_kinds"
	// SeriesCacheUsedBytes gauges the memnode shared cache tier's
	// occupancy (only sampled when the cache is configured).
	SeriesCacheUsedBytes = "cache_used_bytes"
	// SeriesCacheOccupancyPct gauges one tenant's occupancy of the shared
	// cache tier in percent of capacity (gauge, tenant dimension).
	SeriesCacheOccupancyPct = "cache_occupancy_pct"
)

// SeriesKind distinguishes how points accumulate within a window.
type SeriesKind uint8

// The series kinds.
const (
	// Counter sums deltas per window.
	Counter SeriesKind = iota
	// Gauge keeps the last value set in each window.
	Gauge
	// Sample aggregates observations: count, sum, min, max, and a
	// power-of-two histogram for percentile estimates.
	Sample
)

var kindNames = [...]string{Counter: "counter", Gauge: "gauge", Sample: "sample"}

// String names the kind.
func (k SeriesKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Dims are the rollup dimensions. Empty strings mean "not applicable", not
// "unknown": node-level gauges carry only Node, per-class page counters all
// three. Dims is a comparable value type so series lookup allocates nothing.
type Dims struct {
	// Node is the node or rack identifier ("n0", "pool", "rack").
	Node string `json:"node,omitempty"`
	// Tenant is the paying tenant (the function name under the default
	// memnode tenant mapping).
	Tenant string `json:"tenant,omitempty"`
	// Class is the page class ("runtime", "init", "exec", "other").
	Class string `json:"class,omitempty"`
}

// point is one (series, window) cell.
type point struct {
	count   int64
	sum     int64
	last    int64
	min     int64
	max     int64
	buckets *hist.Buckets // Sample series only
}

func (p *point) observe(v int64) {
	if p.count == 0 || v < p.min {
		p.min = v
	}
	if p.count == 0 || v > p.max {
		p.max = v
	}
	p.count++
	p.sum += v
	p.last = v
}

// seriesKey identifies one series; comparable, so resolving a series
// allocates nothing once it exists.
type seriesKey struct {
	name string
	dims Dims
}

// SeriesID is a series resolved by one Recorder's Series; the emit methods
// take it. An ID is only meaningful to the recorder that returned it. The
// zero SeriesID names no series: a nil recorder resolves everything to it,
// and emitting by it is a no-op.
type SeriesID int32

type seriesData struct {
	name string
	dims Dims
	kind SeriesKind
	// cells is indexed by absolute window; a cell with count 0 is absent.
	cells []point
}

// FlightEvent is one high-resolution event kept by the flight recorder.
type FlightEvent struct {
	// At is the event's virtual time.
	At simtime.Time `json:"at"`
	// Name is the series the event fed.
	Name string `json:"name"`
	// Dims are the event's dimensions.
	Dims Dims `json:"dims"`
	// Value is the counter delta or observed sample.
	Value int64 `json:"value"`
}

// Trigger labels why a flight dump was taken.
type Trigger string

// The dump triggers.
const (
	// TriggerFaultWindow fired because a fault-injection window opened.
	TriggerFaultWindow Trigger = "fault-window"
	// TriggerSLOBurn fired because a sealed window's over-SLO fraction
	// crossed the burn threshold.
	TriggerSLOBurn Trigger = "slo-burn"
)

// Dump is one flight-recorder snapshot: the retained high-resolution events
// from the last FlightWindows windows before the trigger.
type Dump struct {
	// Trigger says why the dump was taken.
	Trigger Trigger `json:"trigger"`
	// Series names the series that tripped the trigger (the latency series
	// whose window burned its SLO budget); empty for fault-window dumps,
	// which are armed from the fault plan rather than a series.
	Series string `json:"series,omitempty"`
	// At is the virtual time of the trigger.
	At simtime.Time `json:"at"`
	// Window is the window index containing At.
	Window int64 `json:"window"`
	// Events are the retained events, oldest first.
	Events []FlightEvent `json:"events"`
}

// DefaultWindow is the rollup window used when Config.Window is zero: one
// virtual second.
const DefaultWindow = time.Second

// Config parameterizes a Recorder. The zero value selects all defaults.
type Config struct {
	// Window is the rollup window on the virtual clock (default 1s).
	Window time.Duration
	// FlightWindows is how many trailing windows a dump covers (default 8).
	FlightWindows int
	// FlightCapacity bounds the flight ring (default 4096 events).
	FlightCapacity int
	// SLO is the latency objective feeding the burn-rate alarm (default
	// 1s). Observations via ObserveLatency above SLO burn the budget.
	SLO time.Duration
	// BurnThreshold is the per-window over-SLO fraction that trips a dump
	// when a window seals (default 0.5).
	BurnThreshold float64
	// MaxDumps bounds retained dumps (default 16); later triggers are
	// counted but not stored.
	MaxDumps int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.FlightWindows <= 0 {
		c.FlightWindows = 8
	}
	if c.FlightCapacity <= 0 {
		c.FlightCapacity = 4096
	}
	if c.SLO <= 0 {
		c.SLO = time.Second
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 0.5
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = 16
	}
	return c
}

// Recorder rolls events up into per-window points and feeds the flight
// recorder. A nil *Recorder is the disabled recorder: every method is a
// zero-allocation no-op, so instrumentation sites record unconditionally.
// Construct with NewRecorder. Safe for
// concurrent use; within one engine, recording order is the deterministic
// event order of the virtual clock.
type Recorder struct {
	mu  sync.Mutex
	cfg Config
	// ids maps each resolved key to its SeriesID; series[id-1] holds the
	// series' cells.
	ids    map[seriesKey]SeriesID
	series []seriesData

	flight ring.Ring[FlightEvent]

	// Fault-window triggers: sorted start times not yet crossed.
	trigAt   []simtime.Time
	trigNext int

	// Burn-rate alarm state for the newest latency window seen in the
	// current run.
	alarmWin    int64
	alarmCount  int64
	alarmOver   int64
	alarmSeries string

	dumps        []Dump
	dumpsDropped int

	// Page byte-flow ledger (see flow.go).
	flows    map[flowKey]map[int64]int64
	occ      map[int64]*occWindow
	flowNet  int64
	flowRuns int
}

// NewRecorder creates a recorder with cfg (zero fields select defaults).
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		ids:      make(map[seriesKey]SeriesID),
		flight:   ring.New[FlightEvent](cfg.FlightCapacity),
		alarmWin: noWindow,
		flows:    make(map[flowKey]map[int64]int64),
		occ:      make(map[int64]*occWindow),
	}
}

// Window returns the rollup window (DefaultWindow on nil, so callers can
// arm samplers unconditionally).
func (r *Recorder) Window() time.Duration {
	if r == nil {
		return DefaultWindow
	}
	return r.cfg.Window
}

// noWindow is the alarm's window before a run's first latency sample.
const noWindow = -1 << 62

// windowOf maps a virtual time onto its window index.
func (r *Recorder) windowOf(at simtime.Time) int64 {
	return int64(at / r.cfg.Window)
}

// Series resolves the series (name, d) to its ID, creating it with kind on
// first use; the first caller fixes the kind. Resolve once and emit through
// the ID; a series whose dimensions vary per call (a tenant) is resolved at
// the emit site, one key probe. Returns the zero SeriesID on nil.
func (r *Recorder) Series(name string, d Dims, kind SeriesKind) SeriesID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := r.resolve(seriesKey{name: name, dims: d}, kind)
	r.mu.Unlock()
	return id
}

// resolve finds or creates the series k; r.mu is held.
func (r *Recorder) resolve(k seriesKey, kind SeriesKind) SeriesID {
	if id, ok := r.ids[k]; ok {
		return id
	}
	r.series = append(r.series, seriesData{name: k.name, dims: k.dims, kind: kind})
	id := SeriesID(len(r.series))
	r.ids[k] = id
	return id
}

// cell returns series id and its cell for the window containing at, growing
// the series' cells to reach that window; r.mu is held. Virtual time starts
// at 0, so at is never negative.
func (r *Recorder) cell(id SeriesID, at simtime.Time) (*seriesData, *point) {
	s := &r.series[id-1]
	win := r.windowOf(at)
	if n := win + 1 - int64(len(s.cells)); n > 0 {
		s.cells = append(s.cells, make([]point, n)...)
	}
	return s, &s.cells[win]
}

// AddCounter accumulates a delta into counter series id for the window
// containing at. No-op on nil or the zero SeriesID.
func (r *Recorder) AddCounter(at simtime.Time, id SeriesID, delta int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.crossTriggers(at)
	s, p := r.cell(id, at)
	p.observe(delta)
	r.flight.Push(FlightEvent{At: at, Name: s.name, Dims: s.dims, Value: delta})
	r.mu.Unlock()
}

// SetGauge records v as one reading of gauge series id in every window
// from the one containing from through the one containing to: a periodic
// sampler reports a quiet span, over which the reading cannot change, in one
// call, and an edge-triggered reading passes (now, now). Gauges do not feed
// the flight recorder, so crossing the fault-window triggers once at to
// takes the same dumps as crossing them window by window. No-op on nil or
// the zero SeriesID.
func (r *Recorder) SetGauge(from, to simtime.Time, id SeriesID, v int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.crossTriggers(to)
	s, _ := r.cell(id, to)
	for win := r.windowOf(from); win <= r.windowOf(to); win++ {
		s.cells[win].observe(v)
	}
	r.mu.Unlock()
}

// ObserveLatency records one latency sample into series id and feeds the
// SLO burn-rate alarm: when the window containing at seals (a later window
// of the same run arrives, or the next run starts) with an over-SLO fraction
// at or above BurnThreshold, a flight dump is taken. No-op on nil or the
// zero SeriesID.
func (r *Recorder) ObserveLatency(at simtime.Time, id SeriesID, lat time.Duration) {
	if r == nil || id == 0 {
		return
	}
	v := int64(lat)
	r.mu.Lock()
	r.crossTriggers(at)
	s, p := r.cell(id, at)
	win := r.windowOf(at)
	if win > r.alarmWin {
		r.sealAlarmWindow(at)
		r.alarmWin = win
	}
	if win == r.alarmWin {
		r.alarmCount++
		r.alarmSeries = s.name
		if v >= int64(r.cfg.SLO) {
			r.alarmOver++
		}
	}
	p.observe(v)
	if p.buckets == nil {
		p.buckets = new(hist.Buckets)
	}
	p.buckets.Observe(v)
	r.flight.Push(FlightEvent{At: at, Name: s.name, Dims: s.dims, Value: v})
	r.mu.Unlock()
}

// sealAlarmWindow evaluates the burn-rate alarm for the window that just
// sealed and resets the accumulators.
func (r *Recorder) sealAlarmWindow(now simtime.Time) {
	if r.alarmCount > 0 &&
		float64(r.alarmOver) >= r.cfg.BurnThreshold*float64(r.alarmCount) {
		r.dump(TriggerSLOBurn, r.alarmSeries, now)
	}
	r.alarmCount = 0
	r.alarmOver = 0
}

// StartRun marks the beginning of an independent simulation run feeding
// this recorder; each run restarts virtual time at zero. It bounds the flow
// ledger: once a recorder holds more than one run (a gateway's
// service-lifetime sink, or a sink merged from scenario shards), the
// occupancy audit reports itself not-applicable. It bounds the burn-rate
// alarm: the previous run's last latency window, which no later window will
// seal, is sealed as of its end, and the new run's windows count afresh.
// It drops the previous run's fault-window starts that were never crossed:
// the new run's clock would otherwise cross them and dump its own flight
// ring under a fault plan it does not have.
func (r *Recorder) StartRun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.alarmCount > 0 {
		r.sealAlarmWindow(simtime.Time(r.alarmWin+1) * r.cfg.Window)
	}
	r.alarmWin = noWindow
	r.trigAt, r.trigNext = nil, 0
	r.flowRuns++
	r.mu.Unlock()
}

// ArmFaultStarts registers fault-window start times: the first event
// recorded at or past each start takes a flight dump. Starts merge with any
// already armed; already-crossed starts (at or before the latest trigger
// processed) are dropped.
func (r *Recorder) ArmFaultStarts(starts []simtime.Time) {
	if r == nil || len(starts) == 0 {
		return
	}
	r.mu.Lock()
	pending := append([]simtime.Time{}, r.trigAt[r.trigNext:]...)
	pending = append(pending, starts...)
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	// Dedupe coincident starts so one instant yields one dump.
	out := pending[:0]
	for _, t := range pending {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	r.trigAt = out
	r.trigNext = 0
	r.mu.Unlock()
}

// crossTriggers fires a dump for every armed fault start at or before now.
func (r *Recorder) crossTriggers(now simtime.Time) {
	for r.trigNext < len(r.trigAt) && now >= r.trigAt[r.trigNext] {
		r.dump(TriggerFaultWindow, "", r.trigAt[r.trigNext])
		r.trigNext++
	}
}

// dump snapshots the flight ring's events from the last FlightWindows
// windows before at.
func (r *Recorder) dump(trigger Trigger, series string, at simtime.Time) {
	if len(r.dumps) >= r.cfg.MaxDumps {
		r.dumpsDropped++
		return
	}
	horizon := at - simtime.Time(r.cfg.FlightWindows)*r.cfg.Window
	var events []FlightEvent
	r.flight.Each(func(ev FlightEvent) {
		if ev.At >= horizon {
			events = append(events, ev)
		}
	})
	r.dumps = append(r.dumps, Dump{
		Trigger: trigger,
		Series:  series,
		At:      at,
		Window:  r.windowOf(at),
		Events:  events,
	})
}

// Dumps returns a copy of the retained flight dumps in trigger order.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Dump, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// DumpsDropped reports how many triggers fired past the MaxDumps cap.
func (r *Recorder) DumpsDropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpsDropped
}

// FlightTotal reports how many events ever entered the flight ring.
func (r *Recorder) FlightTotal() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight.Total()
}

// Config returns the recorder's effective configuration, so a shard
// recorder can be built with the same windowing as the sink it will merge
// into.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}.withDefaults()
	}
	return r.cfg
}

// MergeFrom folds src's rollups, flow ledger, flight events, and dumps into
// r: series points and flow cells merge additively per window, gauge "last"
// values take src's (the later run in merge order), and flight events append
// in src's retained order. Shard recorders folded back into a shared sink in
// a fixed order therefore yield the same state a serial run would.
//
// Merging a nil recorder (either side) is a defined no-op. Merging a
// recorder into itself errors — the additive fold would double every point —
// as does merging recorders with different rollup windows, whose window
// indices are incommensurable.
func (r *Recorder) MergeFrom(src *Recorder) error {
	if r == nil || src == nil {
		return nil
	}
	if r == src {
		return errors.New("timeseries: cannot merge a recorder into itself")
	}
	if r.cfg.Window != src.cfg.Window {
		return fmt.Errorf("timeseries: cannot merge mismatched windows (%s into %s)",
			src.cfg.Window, r.cfg.Window)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range src.series {
		ss := &src.series[i]
		id := r.resolve(seriesKey{name: ss.name, dims: ss.dims}, ss.kind)
		dst := &r.series[id-1]
		if n := len(ss.cells) - len(dst.cells); n > 0 {
			dst.cells = append(dst.cells, make([]point, n)...)
		}
		for win := range ss.cells {
			p, dp := &ss.cells[win], &dst.cells[win]
			if p.count == 0 {
				continue
			}
			if dp.count == 0 || p.min < dp.min {
				dp.min = p.min
			}
			if dp.count == 0 || p.max > dp.max {
				dp.max = p.max
			}
			dp.count += p.count
			dp.sum += p.sum
			dp.last = p.last
			if p.buckets != nil {
				if dp.buckets == nil {
					dp.buckets = new(hist.Buckets)
				}
				dp.buckets.Merge(p.buckets)
			}
		}
	}
	r.flight.MergeFrom(&src.flight)
	for _, d := range src.dumps {
		if len(r.dumps) >= r.cfg.MaxDumps {
			r.dumpsDropped++
			continue
		}
		r.dumps = append(r.dumps, d)
	}
	r.dumpsDropped += src.dumpsDropped
	r.mergeFlowsLocked(src)
	return nil
}
