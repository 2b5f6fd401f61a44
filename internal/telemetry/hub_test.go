package telemetry

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// fullHub builds a hub with every sink attached.
func fullHub() Hub {
	return Hub{
		Tracer:    NewTracer(4),
		Reg:       NewRegistry(),
		Spans:     span.NewRecorder(8),
		Timeline:  timeseries.NewRecorder(timeseries.Config{}),
		Exemplars: exemplar.NewRecorder(exemplar.Config{}),
	}
}

// TestHubDefault pins the per-sink fallback Attach applies: every nil sink
// comes from the process default, an explicit sink is never replaced,
// Tracer/Reg fall back together, and with no default a sink stays off.
func TestHubDefault(t *testing.T) {
	if Default() != (Hub{}) {
		t.Fatal("default hub must start disabled")
	}
	def, own := fullHub(), fullHub()
	cases := []struct {
		name string
		def  Hub
		h    Hub
		want Hub
	}{
		{"zero hub takes every default", def, Hub{}, def},
		{"explicit timeline keeps the default spans", def, Hub{Timeline: own.Timeline},
			Hub{Tracer: def.Tracer, Reg: def.Reg, Spans: def.Spans, Timeline: own.Timeline, Exemplars: def.Exemplars}},
		{"explicit sinks are never overwritten", def, own, own},
		{"explicit registry keeps the tracer off", def, Hub{Reg: own.Reg},
			Hub{Reg: own.Reg, Spans: def.Spans, Timeline: def.Timeline, Exemplars: def.Exemplars}},
		{"explicit tracer keeps the registry off", def, Hub{Tracer: own.Tracer, Exemplars: own.Exemplars},
			Hub{Tracer: own.Tracer, Spans: def.Spans, Timeline: def.Timeline, Exemplars: own.Exemplars}},
		{"no default leaves the hub as is", Hub{}, Hub{Spans: own.Spans}, Hub{Spans: own.Spans}},
		{"partial default fills only what it has", Hub{Timeline: def.Timeline}, Hub{Spans: own.Spans},
			Hub{Spans: own.Spans, Timeline: def.Timeline}},
	}
	defer SetDefault(Hub{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			SetDefault(tc.def)
			a := tc.h.Attach("n0")
			got := Hub{Tracer: a.Tracer, Reg: a.Reg, Spans: a.Spans, Timeline: a.Timeline, Exemplars: a.Exemplars}
			if got != tc.want {
				t.Fatalf("Attach sinks = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestEmitAllocFree pins the emit methods' cost contract: with every sink
// off, or with only the registry on (its handles resolved by Attach),
// reporting an occurrence allocates nothing, and a request's span tree is
// never built while the span and exemplar recorders are both off.
func TestEmitAllocFree(t *testing.T) {
	for name, h := range map[string]Hub{
		"off":      Hub{}.Attach("n0"),
		"registry": Hub{Reg: NewRegistry()}.Attach("n0"),
	} {
		built := false
		tree := func() span.Invocation { built = true; return span.Invocation{} }
		pages := [NumStages]int{StageRuntime: 3, StageInit: 1}
		allocs := testing.AllocsPerRun(100, func() {
			h.Launch(0, "web#1", "web", 1)
			h.Barrier(StageRuntime, 0, time.Second, "web#1", "web", 10)
			h.RequestDone(Request{Container: "web#1", Fn: "web", End: time.Second}, tree)
			h.FaultStall(0, time.Millisecond, "web#1", "web", pages, pages)
			h.OffloadBatch(0, 0, time.Millisecond, "web#1", "web", pages, 4<<12)
			h.Rollback(0, "web#1", "web", 4, 4<<12)
			h.LinkBytes(0, 1, 4<<12, 0, time.Millisecond)
			h.FetchRetry(0, "web#1", "web", 1, time.Millisecond)
			h.Recycle(0, "web#1", "web", 0, 0)
		})
		if allocs != 0 {
			t.Errorf("%s: emitting allocates %v times per round, want 0", name, allocs)
		}
		if built {
			t.Errorf("%s: span tree built with spans and exemplars off", name)
		}
	}
	h := Hub{Reg: NewRegistry()}.Attach("n0")
	h.RequestDone(Request{Fn: "web", End: time.Second}, func() span.Invocation { return span.Invocation{} })
	if got := h.Reg.Counter("faasmem_requests_completed_total", "").Value(); got != 1 {
		t.Errorf("attached registry counted %d requests, want 1", got)
	}
}
