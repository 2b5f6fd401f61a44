package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

// sinkState snapshots everything the shared sinks retained.
type sinkState struct {
	events   []telemetry.Event
	dropped  uint64
	invs     []span.Invocation
	bgs      []span.Background
	flight   uint64
	timeline timeseries.Snapshot
	cells    []exemplar.Cell
}

// runWithSharedSinks installs fresh process-default sinks, calls run at the
// given width, and returns what the sinks retained.
func runWithSharedSinks(t *testing.T, run func(), width int) sinkState {
	t.Helper()
	tr := telemetry.NewTracer(1 << 14)
	sp := span.NewRecorder(1 << 12)
	tl := timeseries.NewRecorder(timeseries.Config{})
	ex := exemplar.NewRecorder(exemplar.Config{})
	telemetry.SetDefault(telemetry.Hub{Tracer: tr, Spans: sp, Timeline: tl, Exemplars: ex})
	defer telemetry.SetDefault(telemetry.Hub{})
	prev := Workers()
	SetWorkers(width)
	defer SetWorkers(prev)
	run()
	return sinkState{
		events:   tr.Events(),
		dropped:  tr.Dropped(),
		invs:     sp.Invocations(),
		bgs:      sp.Backgrounds(),
		flight:   tl.FlightTotal(),
		timeline: timeseries.TakeSnapshot(tl),
		cells:    ex.Cells(),
	}
}

// TestSharedSinksDeterministicAcrossWidths is the shared-sink contract: a
// grid recording into process-default tracer, span, timeline and exemplar
// sinks retains bit-identical contents at any width, because every grid
// (runGrid) records into them in cell-index order whatever the width. It
// covers RunScenarios and harnesses that build their own platforms (Fig4)
// and racks (KeepAliveStrategies, RackDensity), whose hubs pick the default
// sinks up in Attach.
func TestSharedSinksDeterministicAcrossWidths(t *testing.T) {
	scs := gridScenarios(t)
	for _, tc := range []struct {
		name   string
		run    func()
		widths []int
	}{
		{"RunScenarios", func() { RunScenarios(scs) }, []int{2, 8}},
		{"Fig4", func() { Fig4() }, []int{2}},
		{"KeepAliveStrategies", func() { KeepAliveStrategies(11) }, []int{2}},
		{"RackDensity", func() { RackDensity(RackDensityOptions{Seed: 11}) }, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runWithSharedSinks(t, tc.run, 1)
			if len(want.events) == 0 || len(want.invs) == 0 || len(want.timeline.Rows) == 0 || len(want.cells) == 0 {
				t.Fatalf("serial run retained no telemetry (events=%d invs=%d rows=%d cells=%d); test is vacuous",
					len(want.events), len(want.invs), len(want.timeline.Rows), len(want.cells))
			}
			for _, w := range tc.widths {
				got := runWithSharedSinks(t, tc.run, w)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("shared-sink contents differ between workers=1 and workers=%d:\n"+
						"events %d vs %d, dropped %d vs %d, invs %d vs %d, bgs %d vs %d, flight %d vs %d, "+
						"timeline rows %d vs %d, dumps %d vs %d, exemplar cells %d vs %d",
						w, len(want.events), len(got.events), want.dropped, got.dropped,
						len(want.invs), len(got.invs), len(want.bgs), len(got.bgs),
						want.flight, got.flight, len(want.timeline.Rows), len(got.timeline.Rows),
						len(want.timeline.Dumps), len(got.timeline.Dumps), len(want.cells), len(got.cells))
				}
			}
		})
	}
}

// TestSweepSharedSinksDeterministicAcrossWidths holds Sweep to the same
// contract: a sweep over all six policies retains identical tracer events
// and timeline rows in process-default sinks at widths 1 and 4.
func TestSweepSharedSinksDeterministicAcrossWidths(t *testing.T) {
	inv := HighLoadInvocations(4*time.Minute, 11)
	var points []SweepPoint
	for _, pk := range PolicyKinds() {
		points = append(points, SweepPoint{Label: string(pk), Scenario: Scenario{
			Profile:     workload.ByName("web"),
			Invocations: inv,
			Duration:    4 * time.Minute,
			KeepAlive:   2 * time.Minute,
			Policy:      pk,
			Seed:        11,
		}})
	}
	sweep := func(width int) ([]telemetry.Event, []timeseries.Row) {
		tr := telemetry.NewTracer(1 << 14)
		tl := timeseries.NewRecorder(timeseries.Config{})
		telemetry.SetDefault(telemetry.Hub{Tracer: tr, Timeline: tl})
		defer telemetry.SetDefault(telemetry.Hub{})
		prev := Workers()
		SetWorkers(width)
		defer SetWorkers(prev)
		Sweep(points)
		return tr.Events(), tl.Rows()
	}
	wantEvents, wantRows := sweep(1)
	if len(wantEvents) == 0 || len(wantRows) == 0 {
		t.Fatalf("serial sweep retained %d events and %d timeline rows; test is vacuous",
			len(wantEvents), len(wantRows))
	}
	gotEvents, gotRows := sweep(4)
	if !reflect.DeepEqual(wantEvents, gotEvents) {
		t.Errorf("tracer events differ between workers=1 and workers=4 (%d vs %d events)",
			len(wantEvents), len(gotEvents))
	}
	if !reflect.DeepEqual(wantRows, gotRows) {
		t.Errorf("timeline rows differ between workers=1 and workers=4 (%d vs %d rows)",
			len(wantRows), len(gotRows))
	}
}
