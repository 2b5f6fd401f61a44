package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiment is one regenerable figure, table or extension sweep. The
// Registry is the only place experiments are named: cmd/experiments, the
// gateway's /experiments routes and `make determinism` all iterate it.
type Experiment struct {
	// Name is the lowercase identifier used by -only, the -json file name
	// and the gateway route.
	Name string
	// WallClock marks an experiment whose rows are measured host times, so
	// they differ between any two runs and are left out of determinism diffs.
	WallClock bool
	// Run regenerates the experiment at paper scale and seed, writes its
	// human-readable report to w, and returns its rows plus any SVG
	// renderings keyed by file stem.
	Run func(w io.Writer, seed int64) (rows any, svgs map[string]string)
}

// Registry lists every experiment in presentation order.
var Registry = []Experiment{
	{Name: "fig1", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig1(Fig1Options{Seed: seed})
		printRows(w, "Figure 1: memory inactive time and cold-start ratio vs keep-alive timeout", rows)
		plotFig1(w, rows)
		return rows, map[string]string{"fig1": SVGFig1(rows)}
	}},
	{Name: "fig2", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig2(Fig2Options{Seed: seed})
		printRows(w, "Figure 2: P95 latency when offloading via DAMON", rows)
		return rows, map[string]string{"fig2": SVGFig2(rows)}
	}},
	{Name: "fig4", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig4()
		printRows(w, "Figure 4: inactive runtime-segment memory of hello-world containers", rows)
		return rows, nil
	}},
	{Name: "fig5", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig5(Fig5Options{Seed: seed})
		PrintFig5(w, rows)
		return rows, map[string]string{"fig5": SVGFig5(rows)}
	}},
	{Name: "fig6", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig6(Fig6Options{Seed: seed})
		printRows(w, "Figure 6: BERT access-bit scan (footprint and per-sample accessed memory)", rows)
		return rows, nil
	}},
	{Name: "fig8", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig8(Fig8Options{Seed: seed})
		printRows(w, "Figure 8: pages recalled from the Runtime Pucket after reactive offload", rows)
		return rows, nil
	}},
	{Name: "fig9", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig9(25, seed)
		PrintFig9(w, rows)
		return rows, nil
	}},
	{Name: "fig12", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig12(Fig12Options{Seed: seed})
		printRows(w, "Figure 12: normalized memory usage and P95 latency (Azure-like traces)", rows)
		return rows, nil
	}},
	{Name: "table1", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Table1(Table1Options{Seed: seed})
		printRows(w, "Table 1: P95 latency and average memory under diverse traces", rows)
		return rows, nil
	}},
	{Name: "fig13", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig13(Fig13Options{Seed: seed, WithTimeline: true})
		printRows(w, "Figure 13: ablation of Pucket and Semi-warm (Bert)", rows)
		plotFig13(w, rows)
		return rows, map[string]string{"fig13": SVGFig13(rows)}
	}},
	{Name: "fig14", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig14(Fig14Options{Seed: seed})
		PrintFig14(w, rows)
		return rows, map[string]string{"fig14": SVGFig14(rows)}
	}},
	{Name: "fig15", WallClock: true, Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig15()
		printRows(w, "Figure 15: overhead of time-barrier insertion and periodic rollback", rows)
		return rows, nil
	}},
	{Name: "fig16", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig16(Fig16Options{Seed: seed})
		printRows(w, "Figure 16: remote bandwidth and estimated density improvement", rows)
		plotFig16(w, rows)
		return rows, map[string]string{"fig16": SVGFig16(rows)}
	}},
	{Name: "ext-pools", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PoolComparison(PoolComparisonOptions{Seed: seed})
		printRows(w, "Extension (§9): memory-pool technology comparison (Bert, FaaSMem)", rows)
		return rows, nil
	}},
	{Name: "ext-coldstart", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := ColdStartTiming(ColdStartTimingOptions{Seed: seed})
		printRows(w, "Extension (§8.3.2): cold-start-aware semi-warm timing (Bert)", rows)
		return rows, nil
	}},
	{Name: "ext-readahead", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Readahead(seed)
		printRows(w, "Extension (§10): swap readahead / prefetching on the recall path (Bert)", rows)
		return rows, map[string]string{"ext-readahead": SVGReadahead(rows)}
	}},
	{Name: "ext-keepalive", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := KeepAliveStrategies(seed)
		printRows(w, "Extension (§10): composing FaaSMem with an adaptive keep-alive policy (Web)", rows)
		return rows, nil
	}},
	{Name: "ext-percentile", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PercentileSweep(PercentileSweepOptions{Seed: seed})
		printRows(w, "Extension (§6.1): semi-warm timing percentile sweep (Bert)", rows)
		return rows, nil
	}},
	{Name: "ext-rack", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := RackDensity(RackDensityOptions{Seed: seed})
		printRows(w, "Extension (§8.6/§9): rack with per-node DRAM limits and a shared pool", rows)
		return rows, nil
	}},
	{Name: "ext-attrib", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := AttribPressure(seed)
		printRows(w, "Extension (Fig. 2 revisited): latency attribution under rising memory pressure (Bert, FaaSMem)", rows)
		return rows, nil
	}},
	{Name: "ext-pool-density", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PoolDensity(PoolDensityOptions{Seed: seed})
		printRows(w, "Extension (§9): pool-side memory node — effective-capacity amplification", rows)
		return rows, nil
	}},
	{Name: "ext-merge", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := MergeDomains(seed)
		printRows(w, "Extension (§9): cross-tenant merge domains — density vs CoW unmerge cost", rows)
		return rows, nil
	}},
	{Name: "ext-resilience", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Resilience(seed)
		printRows(w, "Extension: fault injection — rack degradation vs fault intensity", rows)
		return rows, nil
	}},
	{Name: "ext-observe", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		cells, _ := watchCells(seed)
		PrintObserve(w, cells)
		return cells, nil
	}},
	{Name: "ext-drilldown", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		_, cells := watchCells(seed)
		PrintDrilldown(w, cells)
		return cells, nil
	}},
	{Name: "ext-stateful", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Stateful(StatefulOptions{Seed: seed})
		PrintStateful(w, rows)
		return rows, nil
	}},
}

// Names returns the registry's experiment names in presentation order.
func Names() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// Select returns the registry entries named in names, in registry order and
// each at most once; an empty list selects every entry. Names are matched
// case-insensitively, and an unknown name is an error listing the options.
func Select(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		return Registry, nil
	}
	known := Names()
	want := map[string]bool{}
	for _, n := range names {
		key := strings.ToLower(strings.TrimSpace(n))
		if !slices.Contains(known, key) {
			return nil, fmt.Errorf("unknown experiment %q (options: %s)", n, strings.Join(known, ", "))
		}
		want[key] = true
	}
	var out []Experiment
	for _, e := range Registry {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}
