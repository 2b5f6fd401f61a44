package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// ---------------------------------------------------------------- Figure 2

// Fig2Row compares one benchmark's P95 latency without offloading and with
// DAMON.
type Fig2Row struct {
	Bench    string  `col:"benchmark"`
	BaseP95  float64 `col:"no-offload P95,%.3fs"` // seconds
	DamonP95 float64 `col:"DAMON P95,%.3fs"`      // seconds
	Slowdown float64 `col:"slowdown,%.1fx"`
}

// Fig2Options sizes the DAMON motivation study.
type Fig2Options struct {
	// Duration of the invocation trace per benchmark. Default 1 h (enough
	// requests that cold starts fall below the 95th percentile).
	Duration time.Duration
	// MeanGap between requests. Default 40 s — long enough for DAMON's
	// constant sampling to drain the idle containers' hot sets.
	MeanGap time.Duration
	Seed    int64
	// Benches restricts the benchmark set (nil = all 11).
	Benches []string
}

// Fig2 reproduces Figure 2: offloading with DAMON inflates the benchmarks'
// P95 response latency (the paper observes up to 14×), because sampling
// continues through keep-alive and classifies the next request's hot pages
// as cold.
func Fig2(opt Fig2Options) []Fig2Row {
	if opt.Duration <= 0 {
		opt.Duration = time.Hour
	}
	if opt.MeanGap <= 0 {
		opt.MeanGap = 40 * time.Second
	}
	benches := opt.Benches
	if len(benches) == 0 {
		benches = workload.Names()
	}
	scs := make([]Scenario, 0, 2*len(benches))
	for i, name := range benches {
		prof := workload.ByName(name)
		inv := trace.GenerateFunction(name, opt.Duration, opt.MeanGap, false, opt.Seed+int64(i)).Invocations
		scs = append(scs,
			Scenario{Profile: prof, Invocations: inv, Duration: opt.Duration, Policy: Baseline, Seed: opt.Seed},
			Scenario{Profile: prof, Invocations: inv, Duration: opt.Duration, Policy: DAMON, Seed: opt.Seed})
	}
	outs := RunScenarios(scs)
	var rows []Fig2Row
	for i, name := range benches {
		base, damon := outs[2*i], outs[2*i+1]
		slow := 0.0
		if base.P95 > 0 {
			slow = damon.P95 / base.P95
		}
		rows = append(rows, Fig2Row{Bench: name, BaseP95: base.P95, DamonP95: damon.P95, Slowdown: slow})
	}
	return rows
}

// ---------------------------------------------------------------- Figure 8

// Fig8Row reports recalls from the Runtime Pucket for one benchmark.
type Fig8Row struct {
	Bench string `col:"benchmark"`
	// RecallPages is how many runtime-segment pages subsequent requests
	// recalled after the reactive offload.
	RecallPages int64 `col:"recall pages"`
	Requests    int   `col:"requests"`
}

// Fig8Options sizes the runtime-recall study.
type Fig8Options struct {
	// Requests per benchmark after the first, one a second. Default 20.
	Requests int
	Seed     int64
}

// Fig8 reproduces Figure 8: after FaaSMem offloads the Runtime Pucket upon
// first-request completion, later requests recall almost no runtime pages
// (the paper counts 0–3 across the 11 benchmarks).
func Fig8(opt Fig8Options) []Fig8Row {
	if opt.Requests <= 0 {
		opt.Requests = 20
	}
	profs := workload.Profiles()
	scs := make([]Scenario, len(profs))
	for i, prof := range profs {
		var inv []time.Duration
		for j := 0; j <= opt.Requests; j++ {
			inv = append(inv, time.Duration(j)*time.Second)
		}
		scs[i] = Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    time.Duration(opt.Requests+2) * time.Second,
			Policy:      FaaSMemNoSemi, // isolate the Pucket mechanisms
			Seed:        opt.Seed,
		}
	}
	outs := RunScenarios(scs)
	var rows []Fig8Row
	for i, prof := range profs {
		rows = append(rows, Fig8Row{Bench: prof.Name, RecallPages: outs[i].RuntimeFaultPages, Requests: outs[i].Requests})
	}
	return rows
}

// ---------------------------------------------------------------- Figure 12

// Fig12Row is one (benchmark, policy) cell of the headline comparison.
type Fig12Row struct {
	Bench  string     `col:"benchmark"`
	Load   string     `col:"1:load"` // "high" | "low"
	Policy PolicyKind `col:"policy"`
	// AvgLocalMB is the average node-local memory.
	AvgLocalMB float64 `col:"avg local mem,%.1f MB"`
	// MemVsBase is AvgLocal normalized to the baseline (1.0 = no saving).
	MemVsBase float64 `col:"vs base,%+.1f%%,delta"`
	// P95 is the 95%-ile end-to-end latency in seconds.
	P95 float64 `col:"P95,%.3fs"`
	// P95VsBase is P95 normalized to the baseline.
	P95VsBase float64 `col:"vs base,%+.1f%%,delta"`
}

// Fig12Options sizes the Azure-trace evaluation.
type Fig12Options struct {
	// Duration of the high/low-load windows. Paper: 1 hour. Default 1 h.
	Duration time.Duration
	Seed     int64
	// Benches restricts the benchmark set (nil = all 11).
	Benches []string
	// Policies restricts the policy set (nil = Baseline, TMO, FaaSMem).
	Policies []PolicyKind
}

// Fig12 reproduces Figure 12: normalized average local memory usage and P95
// latency for the 11 benchmarks under a high-load and a low-load Azure-like
// trace, comparing Baseline, TMO and FaaSMem. The paper reports FaaSMem
// saving 27.1–71.0% (high) and 9.9–72.0% (low) with ≤ ~10% P95 impact, and
// TMO saving only a few percent.
func Fig12(opt Fig12Options) []Fig12Row {
	if opt.Duration <= 0 {
		opt.Duration = time.Hour
	}
	benches := opt.Benches
	if len(benches) == 0 {
		benches = workload.Names()
	}
	policies := opt.Policies
	if len(policies) == 0 {
		policies = []PolicyKind{Baseline, TMO, FaaSMem}
	}

	// Flatten the load×bench×policy grid into independent scenarios, fan them
	// out, then assemble rows serially in grid order so the baseline
	// normalization and row ordering match a serial run exactly.
	var scs []Scenario
	for li, load := range []string{"high", "low"} {
		for bi, name := range benches {
			prof := workload.ByName(name)
			seed := opt.Seed + int64(li*100+bi)
			var inv []time.Duration
			if load == "high" {
				inv = HighLoadInvocations(opt.Duration, seed)
			} else {
				inv = LowLoadInvocations(opt.Duration, seed)
			}
			for _, pk := range policies {
				scs = append(scs, Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    opt.Duration,
					Policy:      pk,
					SeedHistory: true,
					Seed:        seed,
				})
			}
		}
	}
	outs := RunScenarios(scs)

	var rows []Fig12Row
	i := 0
	for _, load := range []string{"high", "low"} {
		for _, name := range benches {
			var base Fig12Row
			for _, pk := range policies {
				out := outs[i]
				i++
				row := Fig12Row{
					Bench:      name,
					Load:       load,
					Policy:     pk,
					AvgLocalMB: out.AvgLocalMB,
					P95:        out.P95,
				}
				if pk == Baseline {
					base = row
				}
				if base.AvgLocalMB > 0 {
					row.MemVsBase = row.AvgLocalMB / base.AvgLocalMB
				}
				if base.P95 > 0 {
					row.P95VsBase = row.P95 / base.P95
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one (trace, application, policy) cell of Table 1.
type Table1Row struct {
	TraceID int        `col:"ID"`
	App     string     `col:"app"`
	Policy  PolicyKind `col:"policy"`
	// P95 latency in seconds and average memory in GB (the paper's units).
	P95   float64 `col:"P95,%.2fs"`
	MemGB float64 `col:"mem,%.2fG"`
	// OffloadRatio is the memory saved relative to the same trace's baseline.
	OffloadRatio float64 `col:"offload,%.0f%%,pct"`
}

// Table1Options sizes the diverse-traces study.
type Table1Options struct {
	// Duration per trace. Default 30 m (the paper uses 1-hour windows).
	Duration time.Duration
	// Traces is the number of high-load traces. Default 6 (IDs 1–6; ID 5 is
	// generated with an extreme short-term surge, as in the paper).
	Traces int
	Seed   int64
}

// Table1 reproduces Table 1: the three applications under six diverse
// high-load traces, comparing Baseline, TMO and FaaSMem on P95 latency and
// average memory. The paper's shape: FaaSMem's blocks are much darker (more
// offload) than TMO's at equal latency; Web offloads the most, Graph the
// least; trace ID-5's surge inflates everyone's tail latency.
func Table1(opt Table1Options) []Table1Row {
	if opt.Duration <= 0 {
		opt.Duration = 30 * time.Minute
	}
	if opt.Traces <= 0 {
		opt.Traces = 6
	}
	apps := []string{"bert", "graph", "web"}
	policies := []PolicyKind{Baseline, TMO, FaaSMem}
	var scs []Scenario
	for id := 1; id <= opt.Traces; id++ {
		// ID 5 is the anomalous surge trace.
		surge := id == 5
		for _, app := range apps {
			prof := workload.ByName(app)
			seed := opt.Seed + int64(id*10)
			gap := 6 * time.Second
			if surge {
				gap = 2 * time.Second
			}
			inv := trace.GenerateFunction(app, opt.Duration, gap, surge, seed).Invocations
			for _, pk := range policies {
				scs = append(scs, Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    opt.Duration,
					Policy:      pk,
					SeedHistory: true,
					Seed:        seed,
				})
			}
		}
	}
	outs := RunScenarios(scs)

	var rows []Table1Row
	i := 0
	for id := 1; id <= opt.Traces; id++ {
		for _, app := range apps {
			var baseMem float64
			for _, pk := range policies {
				out := outs[i]
				i++
				row := Table1Row{
					TraceID: id,
					App:     app,
					Policy:  pk,
					P95:     out.P95,
					MemGB:   out.AvgLocalMB / 1000,
				}
				if pk == Baseline {
					baseMem = row.MemGB
				}
				if baseMem > 0 {
					row.OffloadRatio = 1 - row.MemGB/baseMem
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}
