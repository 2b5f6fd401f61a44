package experiments

import (
	"fmt"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/hist"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

// TestSinksCoherent runs one scenario with all five sinks on and every
// emitting path exercised — a merging memory node with write-hot runtime
// pages (copy-on-write unmerge), a workflow passing state through shared
// regions, and a fault plan recovered through the local swap copy on one
// node and through cold re-inits on a second node sharing the pool — and
// checks that each occurrence reads the same in every sink that counts it.
func TestSinksCoherent(t *testing.T) {
	const d = 20 * time.Minute
	h := telemetry.Hub{
		Tracer:    telemetry.NewTracer(1 << 20),
		Reg:       telemetry.NewRegistry(),
		Spans:     span.NewRecorder(1 << 16),
		Timeline:  timeseries.NewRecorder(timeseries.Config{}),
		Exemplars: exemplar.NewRecorder(exemplar.Config{}),
	}
	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{
		KeepAliveTimeout: 8 * time.Minute,
		Seed:             11,
		Pool: rmem.Config{
			Node:   &memnode.Config{MergeScope: memnode.MergeFunction},
			Faults: faultinject.New(faultinject.Config{Horizon: d, Intensity: 0.8, Seed: 5}),
		},
		Swap:      faas.SwapConfig{FallbackReadLatency: 50 * time.Microsecond},
		Telemetry: h,
	}, core.New(core.Config{}))
	// A second node on the same pool keeps no local copy, so its timed-out
	// fetches force cold re-inits.
	p1 := faas.NewWithPool(e, faas.Config{
		KeepAliveTimeout: 8 * time.Minute,
		Seed:             11,
		NodeID:           "n1",
		Telemetry:        h,
	}, core.New(core.Config{}), p.Pool())
	for _, node := range []*faas.Platform{p, p1} {
		for _, name := range []string{"json", "web"} {
			prof := *workload.ByName(name)
			prof.RuntimeWriteRatio = 0.3
			node.Register(prof.Name, &prof)
			node.ScheduleInvocations(prof.Name, HighLoadInvocations(d, 11))
		}
	}
	wf, err := workload.WorkflowByName("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	regions := sharedmem.New(sharedmem.Config{Pool: p.Pool()})
	we, err := faas.NewWorkflowEngine(faas.WorkflowConfig{
		Engine:       e,
		Shared:       regions,
		Register:     func(id string, prof *workload.Profile) { p.Register(id, prof) },
		Invoke:       func(id string, h *faas.StageHooks) { p.Invoke(id, h, false) },
		StatePassing: true,
	}, wf)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Minute; at < d; at += 3 * time.Minute {
		e.At(simtime.Time(at), func(*simtime.Engine) { we.Run(nil) })
	}
	e.RunUntil(d + 8*time.Minute)
	// The comparison needs every event; a dropped span tree shows as a
	// span-tree count short of the completed requests below.
	if h.Tracer.Dropped() > 0 {
		t.Fatalf("tracer dropped %d events; the comparison needs them all", h.Tracer.Dropped())
	}

	// Sum each sink's view of the run.
	// Counters are read from a snapshot, so a name no emitter registered
	// fails instead of reading a fresh zero.
	counters := map[string]int64{}
	for _, s := range h.Reg.Snapshot() {
		if s.Type == telemetry.CounterType {
			counters[s.Name] = s.Value
		}
	}
	counter := func(name string) int64 {
		t.Helper()
		v, ok := counters[name]
		if !ok {
			t.Fatalf("registry has no counter %s", name)
		}
		return v
	}
	timeline := map[string]int64{}
	for _, r := range h.Timeline.Rows() {
		if r.Kind == timeseries.Counter.String() {
			timeline[r.Name] += r.Sum
			if r.Name == timeseries.SeriesOffloadPages {
				timeline[r.Name+"/"+r.Class] += r.Sum
			}
		}
	}
	events := map[telemetry.Kind]int64{}         // per-kind count
	eventValue := map[telemetry.Kind]int64{}     // per-kind sum of Value
	offloadEvents := map[telemetry.Stage]int64{} // page-offload Value by stage
	for _, ev := range h.Tracer.Events() {
		events[ev.Kind]++
		eventValue[ev.Kind] += ev.Value
		if ev.Kind == telemetry.KindPageOffload {
			offloadEvents[ev.Stage] += ev.Value
		}
	}

	type reading struct {
		sink string
		v    int64
	}
	check := func(what string, rs ...reading) {
		t.Helper()
		for _, r := range rs[1:] {
			if r.v != rs[0].v {
				t.Errorf("%s: %s reads %d, %s reads %d", what, rs[0].sink, rs[0].v, r.sink, r.v)
			}
		}
	}
	check("link offload bytes",
		reading{"registry", counter("faasmem_link_offload_bytes_total")},
		reading{"timeline", timeline[timeseries.SeriesOffloadBytes]})
	check("link recall bytes",
		reading{"registry", counter("faasmem_link_recall_bytes_total")},
		reading{"timeline", timeline[timeseries.SeriesRecallBytes]})
	for st, name := range map[telemetry.Stage]string{
		telemetry.StageNone: "unsegmented", telemetry.StageRuntime: "runtime",
		telemetry.StageInit: "init", telemetry.StageExec: "exec", telemetry.StageShared: "shared",
	} {
		class := memnode.Class(st).String()
		check("offloaded "+class+" pages",
			reading{"registry", counter("faasmem_pages_offloaded_" + name + "_total")},
			reading{"page-offload events", offloadEvents[st]},
			reading{"timeline", timeline[timeseries.SeriesOffloadPages+"/"+class]})
	}
	check("fetch retries",
		reading{"registry", counter("faasmem_fetch_retries_total")},
		reading{"fetch-retry events", events[telemetry.KindFetchRetry]},
		reading{"timeline", timeline[timeseries.SeriesFetchRetries]})
	check("fetch timeouts",
		reading{"registry", counter("faasmem_fetch_timeouts_total")},
		reading{"fetch-timeout events", events[telemetry.KindFetchTimeout]},
		reading{"timeline", timeline[timeseries.SeriesFetchTimeouts]})
	check("fallback pages",
		reading{"registry", counter("faasmem_fallback_pages_total")},
		reading{"local-fallback events", eventValue[telemetry.KindLocalFallback]},
		reading{"timeline", timeline[timeseries.SeriesFallbackPages]})
	check("cold re-inits",
		reading{"registry", counter("faasmem_cold_reinits_total")},
		reading{"cold-reinit events", events[telemetry.KindColdReinit]},
		reading{"timeline", timeline[timeseries.SeriesColdReinits]})
	check("completed requests",
		reading{"registry", counter("faasmem_requests_completed_total")},
		reading{"request events", events[telemetry.KindRequest]},
		reading{"timeline", timeline[timeseries.SeriesRequests]},
		reading{"span trees", int64(len(h.Spans.Invocations()))})

	// The registry's latency histogram and the timeline's latency series
	// bucket the same samples the same way: every exposed le is a hist edge,
	// and its cumulative count is the timeline's merged count at that edge.
	var lat telemetry.HistSample
	for _, s := range h.Reg.HistSnapshot() {
		if s.Name == "faasmem_request_latency_seconds" {
			lat = s
		}
	}
	tlBuckets := h.Timeline.Buckets(timeseries.SeriesRequestLatency)
	var tlSamples, tlCount int64
	for _, n := range tlBuckets {
		tlCount += n
	}
	for _, r := range h.Timeline.Rows() {
		if r.Name == timeseries.SeriesRequestLatency {
			tlSamples += r.Count
		}
	}
	check("latency samples",
		reading{"registry _count", lat.Count},
		reading{"timeline samples", tlSamples},
		reading{"timeline buckets", tlCount},
		reading{"completed requests", counter("faasmem_requests_completed_total")})
	if len(lat.Buckets) == 0 {
		t.Fatal("registry exposes no latency buckets")
	}
	var cum int64
	edge := 0
	for i, n := range tlBuckets {
		cum += n
		if edge < len(lat.Buckets) && time.Duration(hist.Upper(i)).Seconds() == lat.Buckets[edge].Upper {
			check(fmt.Sprintf("latency count at le=%g", lat.Buckets[edge].Upper),
				reading{"registry", lat.Buckets[edge].Count},
				reading{"timeline", cum})
			edge++
		}
	}
	if edge != len(lat.Buckets) {
		t.Errorf("le=%g is not a hist bucket edge", lat.Buckets[edge].Upper)
	}

	// Every path the checks cover must have run, or they compare zeros.
	for what, v := range map[string]int64{
		"write-break pages":  counter("faasmem_write_break_pages_total"),
		"offloaded pages":    timeline[timeseries.SeriesOffloadPages],
		"fetch retries":      events[telemetry.KindFetchRetry],
		"fetch timeouts":     events[telemetry.KindFetchTimeout],
		"fallback pages":     eventValue[telemetry.KindLocalFallback],
		"cold re-inits":      events[telemetry.KindColdReinit],
		"requests":           events[telemetry.KindRequest],
		"shared-region maps": int64(regions.Stats().Maps),
	} {
		if v == 0 {
			t.Errorf("scenario exercised no %s; the coherence checks are vacuous there", what)
		}
	}
}
