package experiments

import (
	"reflect"

	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
)

// This file holds the metamorphic-testing helpers behind the package's
// determinism contract: every grid harness must emit bit-identical rows
// regardless of the scenario fan-out width (SetWorkers) and regardless of the
// order scenarios are enumerated in. The package's tests call these instead
// of hand-rolling the width loop.

// DivergentWidth evaluates run() once per width, forcing the scenario
// fan-out to that width for the duration of the call, and returns the first
// width whose result is not reflect.DeepEqual to the first width's, or -1
// when every width agrees. The previous worker setting is restored before
// returning. run must be a pure function of the fan-out width — i.e. a
// complete grid evaluation returning its rows.
func DivergentWidth(widths []int, run func() any) int {
	if len(widths) == 0 {
		return -1
	}
	prev := int(workerCount.Load())
	defer SetWorkers(prev)

	SetWorkers(widths[0])
	want := run()
	for _, w := range widths[1:] {
		SetWorkers(w)
		if got := run(); !reflect.DeepEqual(want, got) {
			return w
		}
	}
	return -1
}

// PermuteScenarios returns scs evaluated in a seed-driven shuffled order
// with the outcomes mapped back to input order, so the result is directly
// comparable to RunScenarios(scs). Grid harnesses address result slots by
// index, so enumeration order must never leak into the rows; this is the
// metamorphic half of the determinism contract.
func PermuteScenarios(scs []Scenario, seed int64) []Outcome {
	perm := lazyrand.New(seed).Perm(len(scs))
	shuffled := make([]Scenario, len(scs))
	for i, j := range perm {
		shuffled[i] = scs[j]
	}
	shuffledOut := RunScenarios(shuffled)
	out := make([]Outcome, len(scs))
	for i, j := range perm {
		out[j] = shuffledOut[i]
	}
	return out
}
