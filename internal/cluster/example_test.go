package cluster_test

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// Example builds a two-node rack sharing one memory pool and routes a few
// requests with the warm-first scheduler.
func Example() {
	engine := simtime.NewEngine()
	rack := cluster.New(engine, cluster.Config{
		Nodes: 2,
		Node:  faas.Config{KeepAliveTimeout: 5 * time.Minute, Seed: 1},
	}, func() policy.Policy { return core.New(core.Config{}) })

	rack.Register("web", workload.Web())
	rack.ScheduleInvocations("web", []simtime.Time{
		0, 30 * time.Second, 60 * time.Second,
	})
	engine.RunUntil(3 * time.Minute) // before keep-alive recycles the container

	st := rack.Stats()
	fmt.Printf("requests %d: cold %d, warm %d\n", st.Requests, st.ColdStarts, st.WarmStarts)
	fmt.Printf("pool holds offloaded pages: %v\n", st.PoolUsedMB > 0)
	// Output:
	// requests 3: cold 1, warm 2
	// pool holds offloaded pages: true
}
