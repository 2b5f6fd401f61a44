package workload_test

import (
	"fmt"
	"math/rand"

	"github.com/faasmem/faasmem/internal/workload"
)

// Example lists the paper's 11 benchmarks and one profile's segment layout.
func Example() {
	fmt.Println(len(workload.Names()), "benchmarks")
	b := workload.Bert()
	fmt.Printf("bert: runtime %d MB, init %d MB (%d MB hot), exec %d MB\n",
		b.RuntimeBytes/workload.MB, b.InitBytes/workload.MB,
		b.InitHotBytes/workload.MB, b.ExecBytes/workload.MB)
	// Output:
	// 11 benchmarks
	// bert: runtime 30 MB, init 800 MB (440 MB hot), exec 150 MB
}

// ExampleProfile_RequestTouches shows how a request's page accesses are
// derived from a profile: the Web benchmark touches a shared base plus
// Pareto-selected cached objects.
func ExampleProfile_RequestTouches() {
	p := workload.Web()
	rng := rand.New(rand.NewSource(1))
	var t workload.Touches
	p.RequestTouches(rng, &t)
	fmt.Printf("runtime spans: %d, init spans: %d (shared %d MB first)\n",
		len(t.Runtime), len(t.Init), t.Init[0].Len()/workload.MB)
	// Output:
	// runtime spans: 1, init spans: 7 (shared 140 MB first)
}
