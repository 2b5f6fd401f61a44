package telemetry

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
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

// TestHubDefault pins the per-sink fallback: every nil sink comes from the
// process default, an explicit sink is never replaced, and Tracer/Reg fall
// back together. Shard must resolve to the same hub except that each
// defaulted sink is a fresh private one, and report exactly those as shards.
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
			if got := tc.h.OrDefault(); got != tc.want {
				t.Fatalf("OrDefault = %+v, want %+v", got, tc.want)
			}
			// The run hub is the resolved hub with every defaulted sink
			// swapped for a fresh shard sized like it; explicit sinks and the
			// registry are never sharded.
			run, shard := tc.h.Shard()
			wantRun, wantShard := tc.want, Hub{}
			if tc.h.Tracer == nil && tc.want.Tracer != nil {
				if shard.Tracer == nil || shard.Tracer == tc.want.Tracer || shard.Tracer.Cap() != tc.want.Tracer.Cap() {
					t.Error("defaulted tracer needs a fresh shard of the same capacity")
				}
				wantRun.Tracer, wantShard.Tracer = shard.Tracer, shard.Tracer
			}
			if tc.h.Spans == nil && tc.want.Spans != nil {
				if shard.Spans == nil || shard.Spans == tc.want.Spans || shard.Spans.Cap() != tc.want.Spans.Cap() {
					t.Error("defaulted spans need a fresh shard of the same capacity")
				}
				wantRun.Spans, wantShard.Spans = shard.Spans, shard.Spans
			}
			if tc.h.Timeline == nil && tc.want.Timeline != nil {
				if shard.Timeline == nil || shard.Timeline == tc.want.Timeline || shard.Timeline.Config() != tc.want.Timeline.Config() {
					t.Error("defaulted timeline needs a fresh shard of the same config")
				}
				wantRun.Timeline, wantShard.Timeline = shard.Timeline, shard.Timeline
			}
			if tc.h.Exemplars == nil && tc.want.Exemplars != nil {
				if shard.Exemplars == nil || shard.Exemplars == tc.want.Exemplars || shard.Exemplars.Config() != tc.want.Exemplars.Config() {
					t.Error("defaulted exemplars need a fresh shard of the same config")
				}
				wantRun.Exemplars, wantShard.Exemplars = shard.Exemplars, shard.Exemplars
			}
			if run != wantRun || shard != wantShard {
				t.Fatalf("Shard = %+v, %+v; want %+v, %+v", run, shard, wantRun, wantShard)
			}
		})
	}
}

// record stands in for scenario i: it writes distinct events into every
// sink of h.
func record(h Hub, i int) {
	for k := 0; k < 3; k++ {
		at := simtime.Time(time.Duration(10*i+k) * time.Second)
		fn := []string{"web", "bert"}[i]
		lat := time.Duration(100*i+10*k+1) * time.Millisecond
		inv := span.Invocation{Function: fn, Container: fn + "#1",
			Root: span.Span{Phase: span.PhaseRequest, Start: at, Dur: lat}}
		h.Tracer.record(Event{At: at, Kind: KindRequest, Fn: fn, Value: int64(k)})
		h.Reg.Counter("requests_total", "requests").Add(1)
		h.Spans.Record(inv)
		h.Timeline.AddCounter(at, timeseries.SeriesRequests, timeseries.Dims{Node: "n0", Tenant: fn}, 1)
		h.Exemplars.Record(at, "n0", fn, lat, inv)
	}
}

// sinks snapshots what a hub's sinks retained.
func sinks(h Hub) []any {
	return []any{h.Tracer.Events(), h.Tracer.Dropped(), h.Reg.Get("requests_total").Value(),
		h.Spans.Invocations(), timeseries.TakeSnapshot(h.Timeline), h.Exemplars.Cells()}
}

// TestHubShardMergeMatchesSerial is the fan-out contract at the hub level:
// two scenarios run on shards (in either order) and merged back in index
// order leave the default sinks exactly as recording both into the default
// serially would, ring eviction included (the tracer holds 4 of 6 events).
func TestHubShardMergeMatchesSerial(t *testing.T) {
	defer SetDefault(Hub{})

	serial := fullHub()
	SetDefault(serial)
	record(Hub{}.OrDefault(), 0)
	record(Hub{}.OrDefault(), 1)

	sharded := fullHub()
	SetDefault(sharded)
	run0, sh0 := Hub{}.Shard()
	run1, sh1 := Hub{}.Shard()
	record(run1, 1)
	record(run0, 0)
	if got := sinks(sharded)[0]; len(got.([]Event)) != 0 {
		t.Fatal("shards must not write into the default before the merge")
	}
	for _, sh := range []Hub{sh0, sh1} {
		if err := sharded.MergeFrom(sh); err != nil {
			t.Fatal(err)
		}
	}

	want, got := sinks(serial), sinks(sharded)
	if want[1].(uint64) != 2 {
		t.Fatalf("serial tracer dropped %d events, want 2: the ring must wrap", want[1])
	}
	for i, name := range []string{"tracer events", "tracer drops", "registry", "spans", "timeline", "exemplars"} {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: shard-then-merge differs from serial recording", name)
		}
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
			h.Barrier(StageRuntime, 0, time.Second, "web#1", "web", 10, 0)
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
	if got := h.Reg.Get("faasmem_requests_completed_total").Value(); got != 1 {
		t.Errorf("attached registry counted %d requests, want 1", got)
	}
}
