package experiments

import "testing"

// TestStatefulDeterministicAcrossWidths pins the acceptance criterion that
// ext-stateful rows are bit-identical at any scenario fan-out width.
func TestStatefulDeterministicAcrossWidths(t *testing.T) {
	opt := StatefulOptions{Runs: 3, Seed: 11}
	if w := DivergentWidth([]int{1, 3}, func() any {
		return Stateful(opt)
	}); w != -1 {
		t.Fatalf("stateful rows differ between workers=1 and workers=%d", w)
	}
}

// TestStatefulPoolBeatsReinit checks that the shared ext-stateful run has
// both modes of all five shapes plus the two fan-out widths and the two
// pressures. The headline — pool-backed passing beats re-derivation — and
// every row's integrity are claims stateful-latency, stateful-paths and
// stateful-cow.
func TestStatefulPoolBeatsReinit(t *testing.T) {
	if rows := sharedRows[StatefulRow](t, "ext-stateful"); len(rows) != 5*2+2+2 {
		t.Fatalf("rows = %d, want 14", len(rows))
	}
}
