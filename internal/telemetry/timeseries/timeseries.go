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
//     oldest ring; dumps are capped at MaxDumps; latency distributions use
//     a fixed 65-slot power-of-two bucket array per (series, window).
package timeseries

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
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

// nBuckets spans every positive int64: bucket i holds values whose bit
// length is i, i.e. [2^(i-1), 2^i). Bucket 0 holds zero.
const nBuckets = 65

// point is one (series, window) cell.
type point struct {
	count   int64
	sum     int64
	last    int64
	min     int64
	max     int64
	buckets *[nBuckets]int64 // Sample series only
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

// quantile estimates quantile q (0..1] from the bucket histogram as the
// upper edge of the bucket where the cumulative count crosses q·count,
// clamped to the window's observed max. Deterministic and bounded, which is
// what a per-window P99 on the DES hot path needs.
func (p *point) quantile(q float64) int64 {
	if p.buckets == nil || p.count == 0 {
		return p.max
	}
	rank := int64(q * float64(p.count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < nBuckets; i++ {
		cum += p.buckets[i]
		if cum >= rank {
			edge := bucketUpper(i)
			if edge > p.max {
				return p.max
			}
			return edge
		}
	}
	return p.max
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the inclusive upper edge of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// seriesKey identifies one series; comparable so map lookup is allocation-
// free on the enabled path.
type seriesKey struct {
	name string
	dims Dims
}

type seriesData struct {
	kind   SeriesKind
	points map[int64]*point
	// lastWin/lastPt cache the most recent window, the overwhelmingly
	// common case on the hot path.
	lastWin int64
	lastPt  *point
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
	mu     sync.Mutex
	cfg    Config
	series map[seriesKey]*seriesData

	// Flight ring: fixed capacity, overwrite oldest.
	flight []FlightEvent
	fNext  int
	fTotal uint64

	// Fault-window triggers: sorted start times not yet crossed.
	trigAt   []simtime.Time
	trigNext int

	// Burn-rate alarm state for the newest latency window seen.
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
		series:   make(map[seriesKey]*seriesData),
		flight:   make([]FlightEvent, 0, cfg.FlightCapacity),
		alarmWin: -1 << 62,
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

// windowOf maps a virtual time onto its window index.
func (r *Recorder) windowOf(at simtime.Time) int64 {
	return int64(at / r.cfg.Window)
}

// AddCounter accumulates a delta into the named counter series for the
// window containing at. No-op on nil.
func (r *Recorder) AddCounter(at simtime.Time, name string, d Dims, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.crossTriggers(at)
	p := r.pointAt(at, name, d, Counter)
	p.observe(delta)
	r.record(FlightEvent{At: at, Name: name, Dims: d, Value: delta})
	r.mu.Unlock()
}

// SetGauge stores the latest value of the named gauge series in the window
// containing at. Gauges do not feed the flight recorder (they are sampled
// periodically, not event-driven). No-op on nil.
func (r *Recorder) SetGauge(at simtime.Time, name string, d Dims, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.crossTriggers(at)
	p := r.pointAt(at, name, d, Gauge)
	p.observe(v)
	r.mu.Unlock()
}

// Observe records one sample into the named distribution series. No-op on
// nil.
func (r *Recorder) Observe(at simtime.Time, name string, d Dims, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(at, name, d, v, false)
	r.mu.Unlock()
}

// ObserveLatency records one latency sample and feeds the SLO burn-rate
// alarm: when the window containing at seals (a later window arrives) with
// an over-SLO fraction at or above BurnThreshold, a flight dump is taken.
// No-op on nil.
func (r *Recorder) ObserveLatency(at simtime.Time, name string, d Dims, v time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(at, name, d, int64(v), true)
	r.mu.Unlock()
}

func (r *Recorder) observeLocked(at simtime.Time, name string, d Dims, v int64, latency bool) {
	r.crossTriggers(at)
	if latency {
		win := r.windowOf(at)
		if win > r.alarmWin {
			r.sealAlarmWindow(at)
			r.alarmWin = win
		}
		if win == r.alarmWin {
			r.alarmCount++
			r.alarmSeries = name
			if v >= int64(r.cfg.SLO) {
				r.alarmOver++
			}
		}
	}
	p := r.pointAt(at, name, d, Sample)
	p.observe(v)
	if p.buckets == nil {
		p.buckets = new([nBuckets]int64)
	}
	p.buckets[bucketOf(v)]++
	r.record(FlightEvent{At: at, Name: name, Dims: d, Value: v})
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

// pointAt finds or creates the (series, window) cell. The first caller of a
// name fixes its kind; later mismatched kinds fold into the same cell
// (callers use the canonical Series* constants, so this does not arise in
// practice).
func (r *Recorder) pointAt(at simtime.Time, name string, d Dims, kind SeriesKind) *point {
	k := seriesKey{name: name, dims: d}
	s := r.series[k]
	if s == nil {
		s = &seriesData{kind: kind, points: make(map[int64]*point), lastWin: -1 << 62}
		r.series[k] = s
	}
	win := r.windowOf(at)
	if win == s.lastWin {
		return s.lastPt
	}
	p := s.points[win]
	if p == nil {
		p = &point{}
		s.points[win] = p
	}
	s.lastWin = win
	s.lastPt = p
	return p
}

// record appends one event to the flight ring (overwrite oldest when full).
func (r *Recorder) record(ev FlightEvent) {
	if len(r.flight) < cap(r.flight) {
		r.flight = append(r.flight, ev)
	} else {
		r.flight[r.fNext] = ev
		r.fNext++
		if r.fNext == len(r.flight) {
			r.fNext = 0
		}
	}
	r.fTotal++
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
	appendRecent := func(evs []FlightEvent) {
		for _, ev := range evs {
			if ev.At >= horizon {
				events = append(events, ev)
			}
		}
	}
	if len(r.flight) == cap(r.flight) && cap(r.flight) > 0 {
		appendRecent(r.flight[r.fNext:])
		appendRecent(r.flight[:r.fNext])
	} else {
		appendRecent(r.flight)
	}
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
	return r.fTotal
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
	for k, sd := range src.series {
		dst := r.series[k]
		if dst == nil {
			dst = &seriesData{kind: sd.kind, points: make(map[int64]*point), lastWin: -1 << 62}
			r.series[k] = dst
		}
		for win, p := range sd.points {
			dp := dst.points[win]
			if dp == nil {
				dp = &point{}
				dst.points[win] = dp
			}
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
					dp.buckets = new([nBuckets]int64)
				}
				for b, n := range p.buckets {
					dp.buckets[b] += n
				}
			}
		}
	}
	var retained int
	mergeFlight := func(evs []FlightEvent) {
		for _, ev := range evs {
			r.record(ev)
		}
		retained += len(evs)
	}
	if len(src.flight) == cap(src.flight) && cap(src.flight) > 0 {
		mergeFlight(src.flight[src.fNext:])
		mergeFlight(src.flight[:src.fNext])
	} else {
		mergeFlight(src.flight)
	}
	r.fTotal += src.fTotal - uint64(retained) // record() counted the retained ones
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

// Reset drops all series, flight events, dumps, and alarm state, keeping
// configuration and armed fault starts that have not yet crossed.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.series = make(map[seriesKey]*seriesData)
	r.flight = r.flight[:0]
	r.fNext = 0
	r.fTotal = 0
	r.alarmWin = -1 << 62
	r.alarmCount = 0
	r.alarmOver = 0
	r.alarmSeries = ""
	r.dumps = nil
	r.dumpsDropped = 0
	r.flows = make(map[flowKey]map[int64]int64)
	r.occ = make(map[int64]*occWindow)
	r.flowNet = 0
	r.flowRuns = 0
	r.mu.Unlock()
}
