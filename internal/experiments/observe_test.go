package experiments

import (
	"strings"
	"testing"
	"time"
)

func shortObserveOpts() ObserveOptions {
	return ObserveOptions{
		Intensities: []float64{0, 1},
		Duration:    4 * time.Minute,
		KeepAlive:   3 * time.Minute,
		Window:      30 * time.Second,
		Seed:        11,
		FaultSeed:   7,
	}
}

// TestObserveDeterministicAcrossWidths pins the tentpole acceptance
// criterion: the ext-observe timeline is bit-identical at any
// -scenario-workers width.
func TestObserveDeterministicAcrossWidths(t *testing.T) {
	opt := shortObserveOpts()
	if w := DivergentWidth([]int{1, 8}, func() any {
		return Observe(opt)
	}); w != -1 {
		t.Fatalf("observe timelines differ between workers=1 and workers=%d", w)
	}
}

// TestObserveFaultCoMovement checks the sweep's structural property: the
// faulted cell's timeline visibly co-moves with the fault plan — recovery
// activity and flight dumps appear only at intensity > 0, while the
// fault-free baseline stays activity-free.
func TestObserveFaultCoMovement(t *testing.T) {
	cells := Observe(shortObserveOpts())
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	base, faulted := cells[0], cells[1]

	if base.Intensity != 0 {
		t.Fatalf("first cell intensity = %v, want fault-free baseline 0", base.Intensity)
	}
	if base.Dumps != 0 {
		t.Errorf("fault-free baseline took %d flight dumps, want 0", base.Dumps)
	}
	var baseActivity, baseReqs int64
	for _, w := range base.Windows {
		baseActivity += w.Retries + w.Timeouts + w.FallbackPages + w.Reinits + w.FaultKinds
		baseReqs += w.Requests
	}
	if baseActivity != 0 {
		t.Errorf("fault-free baseline shows recovery activity %d, want 0", baseActivity)
	}
	if baseReqs == 0 {
		t.Error("fault-free baseline rolled up no requests; workload not sampled")
	}

	if faulted.FaultWindows == 0 {
		t.Fatal("faulted cell has no fault windows; plan not generated")
	}
	if faulted.Dumps == 0 {
		t.Error("faulted cell took no flight dumps; fault triggers not armed")
	}
	if faulted.DumpEvents == 0 {
		t.Error("flight dumps carry no events; recorder ring not populated")
	}
	var faultedActivity int64
	faultKindWindows := 0
	for _, w := range faulted.Windows {
		faultedActivity += w.Retries + w.Timeouts + w.FallbackPages
		if w.FaultKinds > 0 {
			faultKindWindows++
		}
	}
	if faultedActivity == 0 {
		t.Error("faulted cell shows no retry/timeout/fallback activity in any window")
	}
	if faultKindWindows == 0 {
		t.Error("no window observed an active fault kind; pool gauge not sampled")
	}
	// Co-movement: recovery activity concentrates in windows where a fault
	// kind was active (or the immediately following window, for recovery
	// echo) rather than being uniform background noise.
	activityInFault := int64(0)
	for i, w := range faulted.Windows {
		act := w.Retries + w.Timeouts + w.FallbackPages
		near := w.FaultKinds > 0 || (i > 0 && faulted.Windows[i-1].FaultKinds > 0)
		if near {
			activityInFault += act
		}
	}
	if activityInFault == 0 {
		t.Error("recovery activity never lands in or next to a fault window")
	}
}

// TestPrintObserveRendersTables smoke-tests the printer output shape.
func TestPrintObserveRendersTables(t *testing.T) {
	opt := shortObserveOpts()
	opt.Intensities = []float64{1}
	cells := Observe(opt)
	var sb strings.Builder
	PrintObserve(&sb, cells)
	out := sb.String()
	for _, want := range []string{"intensity 1.00", "t(s)", "p99(ms)", "fault windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintObserve output missing %q:\n%s", want, out)
		}
	}
}
