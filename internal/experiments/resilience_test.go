package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

func shortResilienceOpts() ResilienceOptions {
	return ResilienceOptions{
		Intensities: []float64{0, 0.5, 1},
		Duration:    4 * time.Minute,
		KeepAlive:   4 * time.Minute,
		Seed:        11,
		FaultSeed:   7,
	}
}

// TestResilienceDeterministicAcrossWidths pins the acceptance criterion that
// ext-resilience rows are bit-identical at any scenario fan-out width.
func TestResilienceDeterministicAcrossWidths(t *testing.T) {
	opt := shortResilienceOpts()
	if w := DivergentWidth([]int{1, 3}, func() any {
		return Resilience(opt)
	}); w != -1 {
		t.Fatalf("resilience rows differ between workers=1 and workers=%d", w)
	}
}

// TestResilienceConservationAndMonotonicity checks the sweep's two structural
// properties: no request is ever lost (completed + rescheduled + failed ==
// submitted on every row), and degradation is monotone in intensity — higher
// intensity means nested-superset fault windows, so the cold-start ratio and
// P99 may not improve.
func TestResilienceConservationAndMonotonicity(t *testing.T) {
	rows := Resilience(shortResilienceOpts())
	for _, r := range rows {
		if got := r.Completed + r.Rescheduled + r.Failed; got != r.Submitted {
			t.Errorf("intensity %.2f: completed %d + rescheduled %d + failed %d = %d, want submitted %d",
				r.Intensity, r.Completed, r.Rescheduled, r.Failed, got, r.Submitted)
		}
	}
	if rows[0].Intensity != 0 {
		t.Fatalf("first row intensity = %v, want the fault-free baseline 0", rows[0].Intensity)
	}
	base := rows[0]
	if base.FetchRetries != 0 || base.FetchTimeouts != 0 || base.ColdReinits != 0 ||
		base.Rescheduled != 0 || base.Failed != 0 {
		t.Errorf("fault-free baseline shows recovery activity: %+v", base)
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.UnhealthyPct < prev.UnhealthyPct {
			t.Errorf("unhealthy%% not monotone: %.2f%% at %.2f, %.2f%% at %.2f",
				prev.UnhealthyPct, prev.Intensity, cur.UnhealthyPct, cur.Intensity)
		}
		if cur.ColdStartRatio < prev.ColdStartRatio {
			t.Errorf("cold-start ratio not monotone: %.4f at %.2f, %.4f at %.2f",
				prev.ColdStartRatio, prev.Intensity, cur.ColdStartRatio, cur.Intensity)
		}
		if cur.P99Sec < prev.P99Sec {
			t.Errorf("P99 not monotone: %.3fs at %.2f, %.3fs at %.2f",
				prev.P99Sec, prev.Intensity, cur.P99Sec, cur.Intensity)
		}
	}
	if last := rows[len(rows)-1]; last.FetchRetries == 0 {
		t.Errorf("full-intensity row exercised no retries: %+v", last)
	}
}

// zeroCostPlan builds a non-empty fault plan whose windows all lie beyond
// the horizon: the fault machinery is armed (Pool.FaultsPlanned() is true,
// so requests pre-count their remote set and fetch through FetchRetry) but
// no window is ever active during the run.
func zeroCostPlan(horizon time.Duration) *faultinject.Plan {
	far := simtime.Time(horizon) + simtime.Time(time.Hour)
	return faultinject.FromWindows([]faultinject.Window{
		{Kind: faultinject.LinkFlap, Start: far, End: far + simtime.Time(time.Minute)},
		{Kind: faultinject.LatencySpike, Start: far, End: far + simtime.Time(time.Minute), Factor: 3},
	})
}

// TestFaultPlanZeroCostWhenOff pins the zero-cost-when-off contract at the
// platform level: a run under an armed-but-never-active fault plan produces
// a request log and aggregate stats bit-identical to the plan-free run.
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
		log         []faas.RequestRecord
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
				p := faas.New(e, faas.Config{
					KeepAliveTimeout: keepAlive,
					Seed:             11,
					Pool:             rmem.Config{Faults: plan, Node: tc.node},
					RequestLogSize:   1 << 14,
				}, core.New(core.Config{}))
				prof := *workload.ByName("json")
				prof.RuntimeWriteRatio = tc.writeRatio
				p.Register(prof.Name, &prof)
				p.ScheduleInvocations(prof.Name, tc.invs)
				e.RunUntil(horizon)
				return result{p.Aggregate(), p.RequestLog().Records(), p.Recovery(),
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
			if !reflect.DeepEqual(want.log, got.log) {
				t.Errorf("request logs diverge under a quiet fault plan (%d vs %d records)", len(want.log), len(got.log))
				for i := range want.log {
					if i < len(got.log) && !reflect.DeepEqual(want.log[i], got.log[i]) {
						t.Errorf("first divergent record %d:\n  off: %+v\n  on:  %+v", i, want.log[i], got.log[i])
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
