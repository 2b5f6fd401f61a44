package faas

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// TestTimelineEventBudget bounds the engine events the timeline adds to a
// gateway-shaped run: a 300 s bursty json trace at a 6 s mean gap under
// FaaSMem, with the 10 min keep-alive semi-warm acts on. The timeline's
// gauges are sampled once per quiet span, not once per window, so turning
// it on must not more than double the events fired.
func TestTimelineEventBudget(t *testing.T) {
	const duration, keepAlive = 300 * time.Second, 10 * time.Minute
	invs := trace.GenerateFunction("json", duration, 6*time.Second, true, 1).Invocations
	fired := func(tel telemetry.Hub) uint64 {
		e := simtime.NewEngine()
		fm := core.New(core.Config{})
		p := New(e, Config{KeepAliveTimeout: keepAlive, Seed: 1, Telemetry: tel}, fm)
		p.Register("json", workload.ByName("json"))
		p.ScheduleInvocations("json", invs)
		e.RunUntil(duration + keepAlive)
		return e.Fired()
	}
	off := fired(telemetry.Hub{})
	on := fired(telemetry.Hub{Timeline: timeseries.NewRecorder(timeseries.Config{})})
	if on > 2*off {
		t.Fatalf("timeline on fires %d events, off %d: %.2fx, want at most 2x",
			on, off, float64(on)/float64(off))
	}
	t.Logf("%d invocations: %d events with the timeline, %d without (%.2fx)",
		len(invs), on, off, float64(on)/float64(off))
}
