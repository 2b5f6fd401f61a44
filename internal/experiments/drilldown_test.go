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

// TestDrilldownDeterministicAcrossWidths pins the acceptance criterion: the
// ext-drilldown cells — exemplar paths, flow rows, audit verdicts and all —
// are bit-identical at any -scenario-workers width.
func TestDrilldownDeterministicAcrossWidths(t *testing.T) {
	if w := DivergentWidth([]int{1, 8}, func() any {
		_, cells := Watch(11)
		return cells
	}); w != -1 {
		t.Fatalf("drilldown cells differ between workers=1 and workers=%d", w)
	}
}

// TestDrilldownSpikeAttribution checks that the shared ext-drilldown run
// has one cell per fault intensity; each cell's audit and attribution chain
// is claims drilldown-audit and drilldown-attribution.
func TestDrilldownSpikeAttribution(t *testing.T) {
	cells := sharedRows[DrilldownCell](t, "ext-drilldown")
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if cells[0].Intensity != 0 || cells[1].Intensity != 1 {
		t.Fatalf("intensities = %v, %v, want 0 and 1", cells[0].Intensity, cells[1].Intensity)
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
	cells := sharedRows[DrilldownCell](t, "ext-drilldown")
	var sb strings.Builder
	PrintDrilldown(&sb, cells[len(cells)-1:])
	out := sb.String()
	for _, want := range []string{"intensity", "dominant", "audit", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintDrilldown output missing %q:\n%s", want, out)
		}
	}
}
