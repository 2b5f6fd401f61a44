package core_test

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// Example runs the same periodic web workload under the no-offload baseline
// and under FaaSMem, showing the library's core result: a large cut in
// node-local memory at essentially unchanged latency.
func Example() {
	var invocations []simtime.Time
	for i := 0; i < 20; i++ {
		invocations = append(invocations, simtime.Time(i*15)*simtime.Time(time.Second))
	}

	run := func(pol policy.Policy) (memMB, p95 float64) {
		engine := simtime.NewEngine()
		platform := faas.New(engine, faas.Config{
			KeepAliveTimeout: 5 * time.Minute,
			Seed:             1,
		}, pol)
		fn := platform.Register("web", workload.Web())
		platform.ScheduleInvocations("web", invocations)
		engine.Run()
		return platform.NodeLocalAvg() / 1e6, fn.Stats().Latency.P95()
	}

	baseMem, baseP95 := run(policy.NoOffload{})
	fmMem, fmP95 := run(core.New(core.Config{}))

	fmt.Printf("baseline: %.0f MB avg local, P95 %.3fs\n", baseMem, baseP95)
	fmt.Printf("faasmem:  %.0f MB avg local, P95 %.3fs\n", fmMem, fmP95)
	fmt.Printf("saved:    %.0f%%\n", (1-fmMem/baseMem)*100)
	// Output:
	// baseline: 329 MB avg local, P95 0.205s
	// faasmem:  101 MB avg local, P95 0.207s
	// saved:    69%
}
