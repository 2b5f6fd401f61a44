package span

import (
	"sort"
	"time"
)

// Quantiles are the percentiles every attribution table reports.
var Quantiles = []float64{0.50, 0.95, 0.99}

// Breakdown decomposes one percentile of end-to-end latency into phases.
// It is an *order statistic*: Total is the latency of the invocation at
// rank ceil(q·n) and Phase its critical-path breakdown, so the phase
// columns sum to Total exactly (integer nanoseconds), not to a blend of
// different requests' histograms.
type Breakdown struct {
	// Q is the quantile in [0,1].
	Q float64 `json:"q"`
	// Total is the end-to-end latency of the rank-q invocation.
	Total time.Duration `json:"total"`
	// Phase holds that invocation's per-phase critical-path time.
	Phase [NumPhases]time.Duration `json:"phase"`
	// Dominant is the largest non-request phase at this percentile.
	Dominant Phase `json:"dominant"`
}

// Attribution aggregates the invocations of one function (or of a whole
// scenario when Function is empty).
type Attribution struct {
	// Function is the function ID, or "" for the scenario-wide aggregate.
	Function string `json:"function,omitempty"`
	// N is the number of invocations aggregated.
	N int `json:"n"`
	// Starts counts invocations by start kind.
	Starts [numStartKinds]int `json:"starts"`
	// MeanTotal is the mean end-to-end latency in seconds.
	MeanTotal float64 `json:"mean_total_s"`
	// MeanPhase is the mean per-phase critical-path time in seconds; the
	// entries sum to MeanTotal (both are sums of the same integer
	// nanoseconds divided by N).
	MeanPhase [NumPhases]float64 `json:"mean_phase_s"`
	// Breakdowns holds one order-statistic decomposition per entry of
	// Quantiles.
	Breakdowns []Breakdown `json:"breakdowns"`
}

// invProfile is one invocation reduced to its critical-path phase times.
type invProfile struct {
	total time.Duration
	phase [NumPhases]time.Duration
}

// Analysis is the result of attributing a set of invocations.
type Analysis struct {
	// Overall aggregates every invocation.
	Overall Attribution `json:"overall"`
	// PerFunction aggregates each function separately, sorted by function
	// ID for deterministic output.
	PerFunction []Attribution `json:"per_function"`
}

// CriticalPath flattens an invocation's tree into per-phase critical-path
// time: each span contributes its self time (duration minus children) to
// its own phase. The entries therefore telescope — their sum equals the
// root duration exactly — with the root's own self time landing in
// PhaseExec's siblings' gaps as PhaseOther. The root span's phase
// (PhaseRequest) never receives time; its self time is re-labelled
// PhaseOther so "request" never competes with its own parts.
func CriticalPath(inv Invocation) [NumPhases]time.Duration {
	var out [NumPhases]time.Duration
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		p := s.Phase
		if depth == 0 || p == PhaseRequest {
			p = PhaseOther
		}
		out[p] += s.SelfDur()
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(inv.Root, 0)
	return out
}

// Analyze builds attribution tables from a set of recorded invocations.
// Output is deterministic: functions are sorted by ID and quantile picks
// break ties by recording order (itself deterministic on the virtual
// clock).
func Analyze(invs []Invocation) *Analysis {
	an := &Analysis{}
	byFn := map[string][]invProfile{}
	var fnKinds = map[string]*[numStartKinds]int{}
	all := make([]invProfile, 0, len(invs))
	var allKinds [numStartKinds]int
	for _, inv := range invs {
		prof := invProfile{total: inv.Total(), phase: CriticalPath(inv)}
		all = append(all, prof)
		byFn[inv.Function] = append(byFn[inv.Function], prof)
		if int(inv.Kind) < int(numStartKinds) {
			allKinds[inv.Kind]++
			k := fnKinds[inv.Function]
			if k == nil {
				k = new([numStartKinds]int)
				fnKinds[inv.Function] = k
			}
			k[inv.Kind]++
		}
	}
	an.Overall = aggregate("", all, allKinds)
	fns := make([]string, 0, len(byFn))
	for fn := range byFn {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		var kinds [numStartKinds]int
		if k := fnKinds[fn]; k != nil {
			kinds = *k
		}
		an.PerFunction = append(an.PerFunction, aggregate(fn, byFn[fn], kinds))
	}
	return an
}

func aggregate(fn string, profs []invProfile, kinds [numStartKinds]int) Attribution {
	at := Attribution{Function: fn, N: len(profs), Starts: kinds}
	if len(profs) == 0 {
		return at
	}
	var sumTotal time.Duration
	var sumPhase [NumPhases]time.Duration
	for _, p := range profs {
		sumTotal += p.total
		for ph, d := range p.phase {
			sumPhase[ph] += d
		}
	}
	n := float64(len(profs))
	at.MeanTotal = sumTotal.Seconds() / n
	for ph, d := range sumPhase {
		at.MeanPhase[ph] = d.Seconds() / n
	}
	// Order-statistic breakdowns: sort by total (stable, so equal totals
	// keep recording order) and decompose the rank-q invocation.
	order := make([]int, len(profs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return profs[order[a]].total < profs[order[b]].total
	})
	for _, q := range Quantiles {
		idx := quantileIndex(q, len(order))
		p := profs[order[idx]]
		bd := Breakdown{Q: q, Total: p.total, Phase: p.phase}
		best := time.Duration(-1)
		for ph := PhaseOther; ph < NumPhases; ph++ {
			if ph == PhaseRequest {
				continue
			}
			if p.phase[ph] > best {
				best = p.phase[ph]
				bd.Dominant = ph
			}
		}
		at.Breakdowns = append(at.Breakdowns, bd)
	}
	return at
}

// quantileIndex returns the 0-based rank of quantile q among n sorted
// samples: the sample of 1-based rank ⌈q·n⌉, clamped to [1, n].
func quantileIndex(q float64, n int) int {
	if n <= 0 {
		return 0
	}
	rank := int(float64(n)*q + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}
