package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/workload"
)

// TestResilienceDeterministicAcrossWidths pins the acceptance criterion that
// ext-resilience rows are bit-identical at any scenario fan-out width.
func TestResilienceDeterministicAcrossWidths(t *testing.T) {
	if w := DivergentWidth([]int{1, 3}, func() any {
		return Resilience(11)
	}); w != -1 {
		t.Fatalf("resilience rows differ between workers=1 and workers=%d", w)
	}
}

// TestResilienceConservationAndMonotonicity checks that the shared
// ext-resilience sweep starts at the fault-free baseline and raises the
// intensity row by row. Request conservation, the quiet baseline and the
// monotone degradation are claims resilience-conservation,
// resilience-recovery and resilience-monotone.
func TestResilienceConservationAndMonotonicity(t *testing.T) {
	rows := sharedRows[ResilienceRow](t, "ext-resilience")
	if len(rows) != 4 || rows[0].Intensity != 0 {
		t.Fatalf("rows = %+v, want 4 rows from the fault-free baseline 0", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Intensity <= rows[i-1].Intensity {
			t.Errorf("intensity %.2f after %.2f, want rising", rows[i].Intensity, rows[i-1].Intensity)
		}
	}
}

// TestRackRequestP99MatchesSpanRoots checks the rack P99 that
// ext-resilience and ext-stateful report, merged from every node's
// per-function latency samplers, against an independent record of the same
// fault-rack run: the end-to-end durations of the span roots, one per
// completed request.
func TestRackRequestP99MatchesSpanRoots(t *testing.T) {
	spans := span.NewRecorder(1 << 14)
	c, _ := faultRack(resilienceDuration, resilienceKeepAlive, 42, 1, false, telemetry.Hub{Spans: spans})
	invs := spans.Invocations()
	if n := c.Stats().Requests; n == 0 || len(invs) != n {
		t.Fatalf("span recorder kept %d trees for %d completed requests", len(invs), n)
	}
	var roots metrics.Sampler
	for _, inv := range invs {
		roots.AddDuration(inv.Total())
	}
	if got, want := rackRequestP99(c), roots.P99(); got != want {
		t.Fatalf("rack P99 %v s, span roots' P99 %v s", got, want)
	}
}

// zeroCostPlan builds a non-empty fault plan whose windows all lie beyond
// the horizon: the fault machinery is armed (Pool.FaultsPlanned() is true,
// so every fetch probes the plan in FetchRetry) but no window is ever
// active during the run.
func zeroCostPlan(horizon time.Duration) *faultinject.Plan {
	far := simtime.Time(horizon) + simtime.Time(time.Hour)
	return faultinject.FromWindows([]faultinject.Window{
		{Kind: faultinject.LinkFlap, Start: far, End: far + simtime.Time(time.Minute)},
		{Kind: faultinject.LatencySpike, Start: far, End: far + simtime.Time(time.Minute), Factor: 3},
	})
}

// TestFaultPlanZeroCostWhenOff pins the zero-cost-when-off contract at the
// platform level: a run under an armed-but-never-active fault plan produces
// span trees (container, kind, arrival, latency, fault stall and its pages
// for every request) and aggregate stats bit-identical to the plan-free run.
// This is the strongest check on the pre-count design — the request path
// under a plan must reproduce the plan-free path exactly whenever the plan
// is quiet, including runs with real remote page faults and, against a
// merging memory node, the copy-on-write unmerge of write-hot runtime pages.
func TestFaultPlanZeroCostWhenOff(t *testing.T) {
	const keepAlive = 8 * time.Minute
	duration := 20 * time.Minute
	horizon := duration + keepAlive

	type result struct {
		agg         faas.AggregateStats
		invs        []span.Invocation
		rec         faas.RecoveryStats
		writeBreaks int64
	}
	for _, tc := range []struct {
		name       string
		writeRatio float64
		node       *memnode.Config
		invs       []simtime.Time
	}{
		{"read-only", 0, nil, LowLoadInvocations(duration, 11)},
		{"merge-write", 0.3, &memnode.Config{MergeScope: memnode.MergeFunction}, HighLoadInvocations(duration, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(plan *faultinject.Plan) result {
				e := simtime.NewEngine()
				spans := span.NewRecorder(1 << 14)
				p := faas.New(e, faas.Config{
					KeepAliveTimeout: keepAlive,
					Seed:             11,
					Pool:             rmem.Config{Faults: plan, Node: tc.node},
					Telemetry:        telemetry.Hub{Spans: spans},
				}, core.New(core.Config{}))
				prof := *workload.ByName("json")
				prof.RuntimeWriteRatio = tc.writeRatio
				p.Register(prof.Name, &prof)
				p.ScheduleInvocations(prof.Name, tc.invs)
				e.RunUntil(horizon)
				return result{p.Aggregate(), spans.Invocations(), p.Recovery(),
					p.Function(prof.Name).Stats().WriteBreakPages}
			}

			want, got := run(nil), run(zeroCostPlan(horizon))

			if want.agg.FaultPages == 0 {
				t.Fatalf("workload produced no remote faults; the parity check is vacuous: %+v", want.agg)
			}
			if tc.writeRatio > 0 && want.writeBreaks == 0 {
				t.Fatal("write-hot workload broke no merged pages; the parity check is vacuous")
			}
			if want.writeBreaks != got.writeBreaks {
				t.Errorf("write-break pages diverge under a quiet fault plan: off %d, on %d", want.writeBreaks, got.writeBreaks)
			}
			if !reflect.DeepEqual(want.agg, got.agg) {
				t.Errorf("aggregate stats diverge under a quiet fault plan:\n  off: %+v\n  on:  %+v", want.agg, got.agg)
			}
			if len(want.invs) != want.agg.Requests {
				t.Fatalf("span recorder kept %d of %d requests; the parity check would be partial", len(want.invs), want.agg.Requests)
			}
			if !reflect.DeepEqual(want.invs, got.invs) {
				t.Errorf("span trees diverge under a quiet fault plan (%d vs %d invocations)", len(want.invs), len(got.invs))
				for i := range want.invs {
					if i < len(got.invs) && !reflect.DeepEqual(want.invs[i], got.invs[i]) {
						t.Errorf("first divergent invocation %d:\n  off: %+v\n  on:  %+v", i, want.invs[i], got.invs[i])
						break
					}
				}
			}
			if (want.rec != faas.RecoveryStats{DoneNormal: want.rec.DoneNormal}) {
				t.Errorf("plan-free run shows recovery activity: %+v", want.rec)
			}
			if !reflect.DeepEqual(want.rec, got.rec) {
				t.Errorf("recovery stats diverge under a quiet fault plan:\n  off: %+v\n  on:  %+v", want.rec, got.rec)
			}
		})
	}
}

// TestRunScenarioRecoveryField checks RunScenario populates Outcome.Recovery
// exactly when a fault plan is armed.
func TestRunScenarioRecoveryField(t *testing.T) {
	sc := Scenario{
		Profile:     workload.ByName("json"),
		Invocations: LowLoadInvocations(5*time.Minute, 3),
		Duration:    5 * time.Minute,
		KeepAlive:   2 * time.Minute,
		Policy:      FaaSMem,
		Seed:        3,
	}
	if out := RunScenario(sc); out.Recovery != nil {
		t.Errorf("Recovery non-nil without a fault plan: %+v", out.Recovery)
	}
	sc.Pool.Faults = zeroCostPlan(sc.Duration + sc.KeepAlive)
	out := RunScenario(sc)
	if out.Recovery == nil {
		t.Fatal("Recovery nil with a fault plan armed")
	}
	if out.Recovery.DoneNormal != out.Requests {
		t.Errorf("quiet plan: DoneNormal = %d, want every request (%d)",
			out.Recovery.DoneNormal, out.Requests)
	}
}

// TestReadaheadUnderFaultPlan runs swap readahead under an active fault
// plan, so walks that resolve readahead runs fetch through FetchRetry's
// backoff. The run must retry fetches and still fault and read ahead remote
// pages.
func TestReadaheadUnderFaultPlan(t *testing.T) {
	const keepAlive = 4 * time.Minute
	duration := 12 * time.Minute
	horizon := duration + keepAlive
	e := simtime.NewEngine()
	reg := telemetry.NewRegistry()
	p := faas.New(e, faas.Config{
		KeepAliveTimeout: keepAlive,
		Seed:             5,
		Pool: rmem.Config{Faults: faultinject.New(faultinject.Config{
			Horizon:   horizon,
			Intensity: 0.3,
			Seed:      5,
		})},
		Swap:      faas.SwapConfig{ReadaheadPages: 8},
		Telemetry: telemetry.Hub{Reg: reg},
	}, core.New(core.Config{}))
	for i, name := range []string{"json", "web"} {
		prof := workload.ByName(name)
		p.Register(name, prof)
		p.ScheduleInvocations(name, LowLoadInvocations(duration, int64(5+i)))
	}
	e.RunUntil(horizon)
	agg, rec := p.Aggregate(), p.Recovery()
	raPages := reg.Counter("faasmem_readahead_pages_total", "").Value()
	if rec.FetchRetries == 0 || agg.FaultPages == 0 || raPages == 0 {
		t.Fatalf("readahead under the fault plan went unexercised: %d fetch retries, %d fault pages, %d readahead pages",
			rec.FetchRetries, agg.FaultPages, raPages)
	}
	t.Logf("%d requests, %d fetch retries, %d fault pages, %d readahead pages", agg.Requests, rec.FetchRetries, agg.FaultPages, raPages)
}
