package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes monotone counters from set-anywhere gauges, which
// matters to Prometheus scrapers (rate() is only valid on counters).
type MetricType uint8

// The metric types.
const (
	// CounterType is a monotonically increasing total.
	CounterType MetricType = iota
	// GaugeType is an instantaneous level.
	GaugeType
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	if t == GaugeType {
		return "gauge"
	}
	return "counter"
}

// Metric is one named counter or gauge. All operations are atomic and
// nil-safe: a nil *Metric (from a nil Registry) absorbs updates for free, so
// subsystems hold and update metrics unconditionally.
type Metric struct {
	name string
	help string
	typ  MetricType
	v    atomic.Int64
}

// Add increases the metric by n. No-op on nil.
func (m *Metric) Add(n int64) {
	if m != nil {
		m.v.Add(n)
	}
}

// Inc increases the metric by one. No-op on nil.
func (m *Metric) Inc() { m.Add(1) }

// Set stores an absolute value (gauges). No-op on nil.
func (m *Metric) Set(n int64) {
	if m != nil {
		m.v.Store(n)
	}
}

// Value reads the current value, 0 on nil.
func (m *Metric) Value() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// Registry is a set of named metrics. A nil *Registry hands out nil metrics,
// keeping the whole path a no-op. Registration is idempotent: asking for an
// existing name returns the same metric, which is how counters accumulate
// across scenario runs sharing one registry (the gateway's /metrics view).
type Registry struct {
	mu        sync.Mutex
	order     []*Metric
	byName    map[string]*Metric
	hists     map[string]*Histogram
	histOrder []*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Metric {
	return r.metric(name, help, CounterType)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Metric {
	return r.metric(name, help, GaugeType)
}

func (r *Registry) metric(name, help string, typ MetricType) *Metric {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, typ, m.typ))
		}
		return m
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was histogram", name, typ))
	}
	m := &Metric{name: name, help: help, typ: typ}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Sample is one metric's value at snapshot time.
type Sample struct {
	// Name is the metric name.
	Name string
	// Help is the metric description.
	Help string
	// Type is the metric type.
	Type MetricType
	// Value is the value read at snapshot time.
	Value int64
}

// Snapshot reads every metric at one instant, sorted by name so output is
// deterministic regardless of registration order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*Metric, len(r.order))
	copy(metrics, r.order)
	r.mu.Unlock()
	out := make([]Sample, len(metrics))
	for i, m := range metrics {
		out[i] = Sample{Name: m.name, Help: m.help, Type: m.typ, Value: m.Value()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sanitizeName maps a metric name onto the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing invalid runes with '_'.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	changed := false
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
			changed = true
		}
	}
	if !changed {
		return name
	}
	return string(b)
}
