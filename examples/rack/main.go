// Rack example: four compute nodes with tight DRAM limits sharing one
// memory-pool node. With the baseline, keep-alive containers overflow the
// nodes' DRAM and get evicted — manufacturing cold starts. With FaaSMem, the
// same DRAM holds more (mostly offloaded) containers, so fewer requests
// cold-start: deployment density, measured rather than estimated.
//
//	go run ./examples/rack
package main

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	const (
		nodes    = 4
		limitMB  = 1800
		duration = 20 * time.Minute
	)
	apps := []*workload.Profile{workload.Bert(), workload.Graph(), workload.Web()}

	run := func(name string, newPolicy func() policy.Policy) cluster.Stats {
		engine := simtime.NewEngine()
		rack := cluster.New(engine, cluster.Config{
			Nodes: nodes,
			Node: faas.Config{
				KeepAliveTimeout: 10 * time.Minute,
				NodeMemoryLimit:  limitMB * 1_000_000,
				Seed:             7,
			},
			Pool: rmem.Config{}, // the paper's 56 Gbps rack pool
		}, newPolicy)
		for i := 0; i < 12; i++ {
			prof := *apps[i%len(apps)]
			prof.Name = fmt.Sprintf("%s-%d", prof.Name, i)
			fn := trace.GenerateFunction(prof.Name, duration,
				time.Duration(15+5*i)*time.Second, i%2 == 0, int64(100+i))
			rack.Register(prof.Name, &prof)
			rack.ScheduleInvocations(prof.Name, fn.Invocations)
		}
		engine.RunUntil(duration + 10*time.Minute)
		return rack.Stats()
	}

	base := run("baseline", func() policy.Policy { return policy.NoOffload{} })
	fm := run("faasmem", func() policy.Policy { return core.New(core.Config{}) })

	fmt.Printf("Rack: %d nodes x %d MB DRAM, shared memory pool, 12 functions, %v\n\n",
		nodes, limitMB, duration)
	fmt.Printf("  %-26s %12s %12s\n", "", "baseline", "faasmem")
	fmt.Printf("  %-26s %12d %12d\n", "requests served", base.Requests, fm.Requests)
	fmt.Printf("  %-26s %11.2f%% %11.2f%%\n", "cold-start ratio",
		pct(base.ColdStarts, base.Requests), pct(fm.ColdStarts, fm.Requests))
	fmt.Printf("  %-26s %12d %12d\n", "containers evicted", base.Evicted, fm.Evicted)
	fmt.Printf("  %-26s %9.0f MB %9.0f MB\n", "avg rack-local memory", base.TotalLocalAvgMB, fm.TotalLocalAvgMB)
	fmt.Printf("  %-26s %12s %9.2f MB/s\n", "pool offload bandwidth", "-", fm.OffloadBWMBps)
}

func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
