package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func shortDrilldownOpts() DrilldownOptions {
	return DrilldownOptions{
		Intensities: []float64{0, 1},
		Duration:    4 * time.Minute,
		KeepAlive:   3 * time.Minute,
		Window:      30 * time.Second,
		Seed:        11,
		FaultSeed:   7,
	}
}

// TestDrilldownDeterministicAcrossWidths pins the acceptance criterion: the
// ext-drilldown cells — exemplar paths, flow rows, audit verdicts and all —
// are bit-identical at any -scenario-workers width.
func TestDrilldownDeterministicAcrossWidths(t *testing.T) {
	opt := shortDrilldownOpts()
	if w := DivergentWidth([]int{1, 8}, func() any {
		return Drilldown(opt)
	}); w != -1 {
		t.Fatalf("drilldown cells differ between workers=1 and workers=%d", w)
	}
}

// TestDrilldownSpikeAttribution checks the sweep's structural chain: both
// cells audit conserved, retain exemplars, and the faulted cell's drill-down
// lands on a concrete worst request with a dominant phase.
func TestDrilldownSpikeAttribution(t *testing.T) {
	cells := Drilldown(shortDrilldownOpts())
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if !c.AuditOK {
			t.Errorf("intensity %.2f: flow conservation violated", c.Intensity)
		}
		if c.AuditChecks == 0 {
			t.Errorf("intensity %.2f: no occupancy checkpoints audited", c.Intensity)
		}
		if c.FlowRows == 0 {
			t.Errorf("intensity %.2f: flow ledger empty", c.Intensity)
		}
		if c.ExemplarCells == 0 {
			t.Errorf("intensity %.2f: no exemplar cells retained", c.Intensity)
		}
		if c.Explanation == nil {
			t.Fatalf("intensity %.2f: no explanation", c.Intensity)
		}
		if c.WorstFunction == "" || c.WorstLatencyMs <= 0 {
			t.Errorf("intensity %.2f: no worst exemplar resolved (%q, %.2fms)",
				c.Intensity, c.WorstFunction, c.WorstLatencyMs)
		}
		if c.DominantPhase == "" {
			t.Errorf("intensity %.2f: worst exemplar has no dominant phase", c.Intensity)
		}
	}
}

// TestFlowConservationAcrossFaultPlans is the randomized conservation sweep:
// single-node scenarios across fault intensities and seeds must audit clean
// in every window — retries, fallbacks, discards, tier storms and all.
func TestFlowConservationAcrossFaultPlans(t *testing.T) {
	prof := workload.ByName("web")
	for _, intensity := range []float64{0, 0.3, 0.7, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			rec := timeseries.NewRecorder(timeseries.Config{Window: 15 * time.Second})
			duration := 3 * time.Minute
			fn := trace.GenerateFunction(prof.Name, duration, 4*time.Second, true, seed)
			sc := Scenario{
				Profile:     prof,
				Invocations: fn.Invocations,
				Duration:    duration,
				KeepAlive:   2 * time.Minute,
				Policy:      FaaSMem,
				SeedHistory: true,
				Seed:        seed,
				Telemetry:   telemetry.Hub{Timeline: rec},
			}
			if intensity > 0 {
				sc.Pool.Faults = faultinject.New(faultinject.Config{
					Horizon:   duration + 2*time.Minute,
					Intensity: intensity,
					Seed:      seed + 100,
				})
			}
			out := RunScenario(sc)
			if out.Requests == 0 {
				t.Fatalf("intensity %.1f seed %d: no requests", intensity, seed)
			}
			a := timeseries.AuditFlows(rec)
			if a.Merged {
				t.Fatalf("intensity %.1f seed %d: single run audited as merged", intensity, seed)
			}
			if !a.OK || a.Violations != 0 {
				for _, w := range a.Windows {
					if !w.OK {
						t.Logf("window %d: occ %d vs flow %d (%d checks)",
							w.Window, w.OccDelta, w.FlowDelta, w.Checks)
					}
				}
				t.Fatalf("intensity %.1f seed %d: conservation violated in %d windows",
					intensity, seed, a.Violations)
			}
			if a.Checks == 0 && len(rec.FlowRows()) > 0 {
				t.Fatalf("intensity %.1f seed %d: flows recorded but never checkpointed",
					intensity, seed)
			}
		}
	}
}

// TestPrintDrilldownRendersChain smoke-tests the printer output shape.
func TestPrintDrilldownRendersChain(t *testing.T) {
	opt := shortDrilldownOpts()
	opt.Intensities = []float64{1}
	cells := Drilldown(opt)
	var sb strings.Builder
	PrintDrilldown(&sb, cells)
	out := sb.String()
	for _, want := range []string{"intensity", "dominant", "audit", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintDrilldown output missing %q:\n%s", want, out)
		}
	}
}
