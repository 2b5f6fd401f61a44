// Tracing: run three functions under FaaSMem with full telemetry and export
// a Chrome trace-event JSON file. Open the output in https://ui.perfetto.dev
// (or chrome://tracing) to see container lifecycles, Pucket offloads, page
// faults and link transfers on the simulated timeline.
//
//	go run ./examples/tracing [out.json]
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	out := "faasmem-trace.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}

	// Attach a tracer and a metric registry to the platform; every subsystem
	// (containers, policy, pool link, swap path) reports into them.
	hub := telemetry.Hub{
		Tracer: telemetry.NewTracer(0), // 0 = default 64 Ki event ring
		Reg:    telemetry.NewRegistry(),
	}

	engine := simtime.NewEngine()
	platform := faas.New(engine, faas.Config{
		KeepAliveTimeout: 5 * time.Minute,
		Telemetry:        hub,
		Seed:             1,
	}, core.New(core.Config{}))

	// Three functions with different memory personalities: a large ML model,
	// a lean web service, and a JSON transcoder.
	duration := 10 * time.Minute
	for _, b := range []struct {
		profile *workload.Profile
		gap     time.Duration
	}{
		{workload.Bert(), 40 * time.Second},
		{workload.Web(), 10 * time.Second},
		{workload.ByName("json"), 15 * time.Second},
	} {
		fn := trace.GenerateFunction(b.profile.Name, duration, b.gap, false, 1)
		platform.Register(b.profile.Name, b.profile)
		platform.ScheduleInvocations(b.profile.Name, fn.Invocations)
	}
	engine.RunUntil(duration + 5*time.Minute) // trace window + keep-alive tail

	if err := telemetry.WriteChromeTraceFile(out, hub.Tracer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("FaaSMem tracing example — 3 functions over %v\n\n", duration)
	fmt.Printf("  events recorded: %d (%d dropped)\n", hub.Tracer.Total(), hub.Tracer.Dropped())
	fmt.Println("  counters:")
	for _, s := range hub.Reg.Snapshot() {
		fmt.Printf("    %-42s %d\n", s.Name, s.Value)
	}
	fmt.Printf("\n  trace written to %s — open it in https://ui.perfetto.dev\n", out)
}
