package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// workerCount holds the scenario-level fan-out width; 0 means GOMAXPROCS.
var workerCount atomic.Int64

// SetWorkers sets how many scenarios the figure harnesses simulate
// concurrently. n <= 0 restores the default (GOMAXPROCS). Every grid cell is
// an independent deterministic simulation and results land in
// index-addressed slots, so the emitted rows are identical for any width —
// only wall-clock changes. Grids ignore the width while a process-default
// sink is set (runGrid).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int64(n))
}

// Workers reports the current scenario fan-out width.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runGrid evaluates fn(0..n-1), spreading the indices across Workers()
// goroutines. fn must write its result into a slot addressed by its own
// index and must not touch other slots; post-processing (row assembly,
// normalization against a baseline cell) stays with the caller, after the
// barrier, so row order never depends on completion order.
//
// While a process-default sink is set, the cells run one after another in
// index order instead, straight into the shared sinks every platform
// attaches: a shared sink's stateful behavior (ring eviction, SLO burn
// alarms, flight dumps) depends on recording order, which index order fixes,
// so the sinks retain the same contents at any width.
//
// Workers claim chunks of adjacent indices from a shared cursor, guided
// self-scheduling style: early claims take bigger chunks (amortizing the
// atomic over cheap cells), late claims shrink toward single cells so a
// straggler cell cannot leave the other workers idle behind a big chunk.
func runGrid(n int, fn func(i int)) {
	w := Workers()
	if telemetry.Default() != (telemetry.Hub{}) {
		w = 1
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				claimed := int(next.Load())
				if claimed >= n {
					return
				}
				chunk := (n - claimed) / (2 * w)
				if chunk < 1 {
					chunk = 1
				}
				i := int(next.Add(int64(chunk))) - chunk
				if i >= n {
					return
				}
				end := i + chunk
				if end > n {
					end = n
				}
				for ; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// RunScenarios executes every scenario through RunScenario on runGrid and
// returns outcomes in input order.
func RunScenarios(scs []Scenario) []Outcome {
	outs := make([]Outcome, len(scs))
	runGrid(len(scs), func(i int) { outs[i] = RunScenario(scs[i]) })
	return outs
}
