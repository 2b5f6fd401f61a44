// Web-service example: an HTML cache whose pages are hit with Pareto
// popularity. FaaSMem's window-based Init-Pucket offload waits until the
// descent gradient of untouched cached pages flattens, then offloads the
// cold tail — giving the Web benchmark the paper's highest offload ratio.
//
//	go run ./examples/webservice
package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	prof := workload.Web()

	// Show the access skew first: which cached objects do 40 requests touch?
	rng := rand.New(rand.NewSource(3))
	hits := map[int64]int{}
	var t workload.Touches
	for i := 0; i < 40; i++ {
		prof.RequestTouches(rng, &t)
		if len(t.Init) > 1 {
			hits[t.Init[1].Start/1e6]++
		}
	}
	fmt.Printf("Pareto access skew over 40 requests (%d cached objects):\n", prof.Objects)
	fmt.Printf("  distinct objects touched: %d — the rest of the %d MB cache is cold\n\n",
		len(hits), prof.InitBytes/1e6)

	// Run the full pipeline and report what the Init-Pucket window chose.
	const duration = 20 * time.Minute
	fn := trace.GenerateFunction("web", duration, 8*time.Second, false, 3)
	out := experiments.RunScenario(experiments.Scenario{
		Profile:     prof,
		Invocations: fn.Invocations,
		Duration:    duration,
		Policy:      experiments.FaaSMem,
		SeedHistory: true,
		Seed:        3,
	})
	base := experiments.RunScenario(experiments.Scenario{
		Profile:     prof,
		Invocations: fn.Invocations,
		Duration:    duration,
		Policy:      experiments.Baseline,
		Seed:        3,
	})

	fmt.Printf("Web service under FaaSMem (%d requests over %v):\n", out.Requests, duration)
	if cs := out.CoreStats; cs != nil && len(cs.WindowSizes) > 0 {
		fmt.Printf("  request-window chosen per container: %v\n", cs.WindowSizes)
	}
	fmt.Printf("  avg local memory: %.0f MB (baseline %.0f MB) → %.1f%% saved\n",
		out.AvgLocalMB, base.AvgLocalMB, (1-out.AvgLocalMB/base.AvgLocalMB)*100)
	fmt.Printf("  P95 latency:      %.3fs (baseline %.3fs)\n", out.P95, base.P95)
	fmt.Printf("  faults recalled:  %d pages across %d requests\n", out.FaultPages, out.Requests)
}
