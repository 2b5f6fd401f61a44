package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

func TestTracerRecordAndOrder(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.record(Event{At: simtime.Time(i) * time.Second, Kind: KindRequest, Actor: "c#1"})
	}
	if tr.Len() != 5 || tr.Total() != 5 || tr.Dropped() != 0 {
		t.Fatalf("Len/Total/Dropped = %d/%d/%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.At != simtime.Time(i)*time.Second {
			t.Fatalf("event %d at %v", i, ev.At)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.record(Event{At: simtime.Time(i), Value: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() != 6 || tr.Total() != 10 {
		t.Fatalf("Dropped/Total = %d/%d, want 6/10", tr.Dropped(), tr.Total())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.Value != want {
			t.Fatalf("event %d value %d, want %d (oldest overwritten first)", i, ev.Value, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after Reset: Len/Total/Dropped = %d/%d/%d", tr.Len(), tr.Total(), tr.Dropped())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.record(Event{Kind: KindPageFault})
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{
			At:    time.Second,
			Dur:   time.Millisecond,
			Kind:  KindPageOffload,
			Stage: StageRuntime,
			Actor: "bert#1",
			Fn:    "bert",
			Value: 128,
		})
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer Record allocates %v per op, want 0", allocs)
	}
}

func TestEnabledTracerSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	// Warm the ring to capacity; steady-state recording then reuses slots.
	for i := 0; i < 64; i++ {
		tr.record(Event{At: simtime.Time(i)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{At: time.Second, Kind: KindRequest, Actor: "c#1", Fn: "f"})
	})
	if allocs != 0 {
		t.Fatalf("full-ring Record allocates %v per op, want 0", allocs)
	}
}

func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.record(Event{At: simtime.Time(i), Kind: KindPageFault, Actor: "bert#1", Fn: "bert", Value: 8})
	}
}

func BenchmarkEnabledTracer(b *testing.B) {
	tr := NewTracer(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.record(Event{At: simtime.Time(i), Kind: KindPageFault, Actor: "bert#1", Fn: "bert", Value: 8})
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.record(Event{At: simtime.Time(i), Kind: KindRequest})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", tr.Total())
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("requests_total", "ignored"); again != c {
		t.Fatal("re-registration must return the same metric")
	}
	g := r.Gauge("live", "live containers")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d samples", len(snap))
	}
	// Sorted by name: "live" < "requests_total".
	if snap[0].Name != "live" || snap[0].Type != GaugeType || snap[0].Value != 5 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].Name != "requests_total" || snap[1].Type != CounterType || snap[1].Value != 5 {
		t.Fatalf("snapshot[1] = %+v", snap[1])
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	m := r.Counter("anything", "")
	if m != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	m.Inc()
	m.Add(3)
	m.Set(9)
	if m.Value() != 0 || m.Name() != "" || m.Type() != CounterType {
		t.Fatal("nil metric must be inert")
	}
	if r.Snapshot() != nil || r.Get("anything") != nil {
		t.Fatal("nil registry reads must be empty")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Gauge("level", "").Set(int64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Get("shared_total").Value(); got != 8000 {
		t.Fatalf("shared_total = %d, want 8000", got)
	}
}

func TestSanitizeName(t *testing.T) {
	r := NewRegistry()
	m := r.Counter("faasmem/pages offloaded.total", "")
	if m.Name() != "faasmem_pages_offloaded_total" {
		t.Fatalf("sanitized name = %q", m.Name())
	}
	if r.Get("faasmem/pages offloaded.total") != m {
		t.Fatal("Get must sanitize the same way")
	}
}

func TestKindAndStageStrings(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
	if StageRuntime.String() != "runtime" || StageInit.String() != "init" ||
		StageExec.String() != "exec" || StageNone.String() != "" {
		t.Fatal("stage names drifted")
	}
}

func TestWriteTextMentionsDrops(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.record(Event{At: simtime.Time(i) * time.Second, Kind: KindRequest, Actor: "a"})
	}
	var b strings.Builder
	if err := WriteText(&b, tr); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "request") || !strings.Contains(out, "3 earlier events dropped") {
		t.Fatalf("text dump missing content:\n%s", out)
	}
}
