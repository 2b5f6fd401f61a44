package rmem

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// TestSampleTimelineSpanMatchesPerWindow samples a faulted pool over ten
// minutes of window boundaries, once as one span and once boundary by
// boundary. The fault-plan gauges change at the plan's window edges inside
// the span, so the span must be split there to leave the same rows; the
// boundaries are laid so that one falls exactly on the plan's first edge.
func TestSampleTimelineSpanMatchesPerWindow(t *testing.T) {
	plan := faultinject.New(faultinject.Config{Horizon: 10 * time.Minute, Intensity: 1, Seed: 3})
	edge, ok := plan.NextTransition(0)
	if !ok || edge < 3*time.Second {
		t.Fatalf("plan's first edge at %v, want one after 3s", edge)
	}
	from := edge - 3*time.Second
	to := from + 600*time.Second
	rows := func(span bool) []timeseries.Row {
		p := NewPool(Config{Faults: plan})
		tl := timeseries.NewRecorder(timeseries.Config{})
		p.Instrument(telemetry.Hub{Timeline: tl})
		if span {
			p.SampleTimeline(from, to)
		} else {
			for b := from; b <= to; b += tl.Window() {
				p.SampleTimeline(b, b)
			}
		}
		return tl.Rows()
	}
	want := rows(false)
	if got := rows(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("span rows differ from per-window rows:\n got %+v\nwant %+v", got, want)
	}
	kinds := map[int64]bool{}
	for _, r := range want {
		if r.Name == timeseries.SeriesFaultActiveKinds {
			kinds[r.Last] = true
		}
	}
	if len(kinds) < 2 {
		t.Fatalf("fault_active_kinds took values %v; the plan never changes inside the span", kinds)
	}
}
