package experiments

import (
	"reflect"
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// sinkState snapshots everything the shared sinks retained.
type sinkState struct {
	events  []telemetry.Event
	dropped uint64
	invs    []span.Invocation
	bgs     []span.Background
	flight  uint64
}

// runWithSharedSinks installs fresh process-default sinks, runs the grid at
// the given width, and returns what the sinks retained.
func runWithSharedSinks(t *testing.T, scs []Scenario, width int) sinkState {
	t.Helper()
	tr := telemetry.NewTracer(1 << 14)
	sp := span.NewRecorder(1 << 12)
	tl := timeseries.NewRecorder(timeseries.Config{})
	telemetry.SetDefault(telemetry.Hub{Tracer: tr, Spans: sp, Timeline: tl})
	defer telemetry.SetDefault(telemetry.Hub{})
	prev := Workers()
	SetWorkers(width)
	defer SetWorkers(prev)
	RunScenarios(scs)
	return sinkState{
		events:  tr.Events(),
		dropped: tr.Dropped(),
		invs:    sp.Invocations(),
		bgs:     sp.Backgrounds(),
		flight:  tl.FlightTotal(),
	}
}

// TestSharedSinksDeterministicAcrossWidths is the shard-merge contract: a
// grid recording into process-default telemetry/span/timeline sinks retains
// bit-identical events whether it ran serially or fanned out — shards merge
// back in scenario-index order, which reproduces the serial recording order.
func TestSharedSinksDeterministicAcrossWidths(t *testing.T) {
	scs := gridScenarios(t)
	want := runWithSharedSinks(t, scs, 1)
	if len(want.events) == 0 || len(want.invs) == 0 {
		t.Fatalf("serial run retained no telemetry (events=%d invs=%d); test is vacuous",
			len(want.events), len(want.invs))
	}
	for _, w := range []int{2, 8} {
		got := runWithSharedSinks(t, scs, w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shared-sink contents differ between workers=1 and workers=%d:\n"+
				"events %d vs %d, dropped %d vs %d, invs %d vs %d, bgs %d vs %d, flight %d vs %d",
				w, len(want.events), len(got.events), want.dropped, got.dropped,
				len(want.invs), len(got.invs), len(want.bgs), len(got.bgs),
				want.flight, got.flight)
		}
	}
}
