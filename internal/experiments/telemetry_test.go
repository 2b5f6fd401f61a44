package experiments

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/workload"
)

// TestRunScenarioTelemetry runs one FaaSMem scenario with a tracer and
// registry attached and checks that the instrumentation layer reported the
// paper's mechanisms end to end: container lifecycle, Pucket offloads, page
// faults and completed requests.
func TestRunScenarioTelemetry(t *testing.T) {
	hub := telemetry.Hub{
		Tracer: telemetry.NewTracer(0),
		Reg:    telemetry.NewRegistry(),
	}
	out := RunScenario(Scenario{
		Profile:     workload.ByName("web"),
		Invocations: HighLoadInvocations(5*time.Minute, 9),
		Duration:    5 * time.Minute,
		Policy:      FaaSMem,
		SeedHistory: true,
		Seed:        9,
		Telemetry:   hub,
	})
	if out.Requests == 0 {
		t.Fatal("scenario executed no requests")
	}

	kinds := map[telemetry.Kind]int{}
	for _, ev := range hub.Tracer.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []telemetry.Kind{
		telemetry.KindContainerLaunch,
		telemetry.KindRuntimeLoaded,
		telemetry.KindInitDone,
		telemetry.KindBarrierInsert,
		telemetry.KindPageOffload,
		telemetry.KindPageFault,
		telemetry.KindLinkTransfer,
		telemetry.KindRequest,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded (got %v)", want, kinds)
		}
	}
	if n := kinds[telemetry.KindRequest]; n != out.Requests {
		t.Errorf("request events = %d, Outcome.Requests = %d", n, out.Requests)
	}

	for _, name := range []string{
		"faasmem_cold_starts_total",
		"faasmem_requests_completed_total",
		"faasmem_fault_pages_total",
		"faasmem_link_offload_bytes_total",
	} {
		if hub.Reg.Counter(name, "").Value() == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if got := hub.Reg.Counter("faasmem_requests_completed_total", "").Value(); got != int64(out.Requests) {
		t.Errorf("faasmem_requests_completed_total = %d, Outcome.Requests = %d", got, out.Requests)
	}
}

// TestRunScenarioTelemetryNeutral verifies that attaching telemetry does not
// perturb the simulation: outcomes with and without a hub must be identical.
func TestRunScenarioTelemetryNeutral(t *testing.T) {
	sc := Scenario{
		Profile:     workload.ByName("json"),
		Invocations: LowLoadInvocations(5*time.Minute, 4),
		Duration:    5 * time.Minute,
		Policy:      FaaSMem,
		Seed:        4,
	}
	plain := RunScenario(sc)
	plain.CoreStats = nil
	sc.Telemetry = telemetry.Hub{Tracer: telemetry.NewTracer(0), Reg: telemetry.NewRegistry()}
	traced := RunScenario(sc)
	traced.CoreStats = nil
	if plain != traced {
		t.Fatalf("telemetry changed the outcome:\n%+v\n%+v", plain, traced)
	}
}
