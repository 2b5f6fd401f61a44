package experiments

import (
	"strings"
	"testing"
)

// TestObserveDeterministicAcrossWidths pins the tentpole acceptance
// criterion: the ext-observe timeline is bit-identical at any
// -scenario-workers width.
func TestObserveDeterministicAcrossWidths(t *testing.T) {
	if w := DivergentWidth([]int{1, 8}, func() any {
		cells, _ := Watch(11)
		return cells
	}); w != -1 {
		t.Fatalf("observe timelines differ between workers=1 and workers=%d", w)
	}
}

// TestObserveFaultCoMovement checks the shape of the shared ext-observe
// cells: a fault-free baseline first, then the faulted cell. Their
// co-movement with the fault plan is claims observe-quiet, observe-faulted
// and observe-comovement.
func TestObserveFaultCoMovement(t *testing.T) {
	cells := sharedRows[ObserveCell](t, "ext-observe")
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if cells[0].Intensity != 0 {
		t.Fatalf("first cell intensity = %v, want fault-free baseline 0", cells[0].Intensity)
	}
}

// TestPrintObserveRendersTables smoke-tests the printer output shape.
func TestPrintObserveRendersTables(t *testing.T) {
	cells := sharedRows[ObserveCell](t, "ext-observe")
	var sb strings.Builder
	PrintObserve(&sb, cells[len(cells)-1:])
	out := sb.String()
	for _, want := range []string{"intensity 1.00", "t(s)", "p99(ms)", "fault windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintObserve output missing %q:\n%s", want, out)
		}
	}
}
