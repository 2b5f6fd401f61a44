// Attribution: answer "where does the tail latency come from" for one
// workload. The example runs a web service twice — generous memory vs. an
// aggressive semi-warm drain — records a causal span tree for every request,
// and prints the per-phase P50/P95/P99 attribution tables side by side. The
// phase columns of every row sum exactly to that row's end-to-end latency.
//
//	go run ./examples/attribution [spans.json]
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	duration := 20 * time.Minute
	fn := trace.GenerateFunction("web", duration, 15*time.Second, false, 7)

	run := func(label string, cfg core.Config) *span.Recorder {
		rec := span.NewRecorder(0) // 0 = default 32 Ki invocation ring
		experiments.RunScenario(experiments.Scenario{
			Profile:     workload.Web(),
			Invocations: fn.Invocations,
			Duration:    duration,
			KeepAlive:   10 * time.Minute,
			Policy:      experiments.FaaSMem,
			CoreConfig:  cfg,
			SeedHistory: true,
			Seed:        7,
			Telemetry:   telemetry.Hub{Spans: rec},
		})
		fmt.Printf("--- %s ---\n", label)
		if err := span.WriteText(os.Stdout, span.Analyze(rec.Invocations())); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		return rec
	}

	run("relaxed: default semi-warm timing", core.Config{})
	// Force the fallback drain timing and make it aggressive: local pages
	// leave early, so requests pay remote-fault stalls and semi-warm
	// restores — watch the fault-stall and restore columns grow.
	pressured := run("pressured: 5s semi-warm drain", core.Config{
		MinIntervalSamples:    1 << 30,
		FallbackSemiWarmDelay: 5 * time.Second,
	})

	if len(os.Args) > 1 {
		out := os.Args[1]
		if err := span.WriteChromeTraceFile(out, pressured); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pressured run's spans written to %s — inspect with\n", out)
		fmt.Printf("  go run ./cmd/faasmem-stat -trace %s\n", out)
	}
}
