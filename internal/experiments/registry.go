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
		PrintFig1(w, rows)
		return rows, map[string]string{"fig1": SVGFig1(rows)}
	}},
	{Name: "fig2", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig2(Fig2Options{Seed: seed})
		PrintFig2(w, rows)
		return rows, map[string]string{"fig2": SVGFig2(rows)}
	}},
	{Name: "fig4", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig4()
		PrintFig4(w, rows)
		return rows, nil
	}},
	{Name: "fig5", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig5(Fig5Options{Seed: seed})
		PrintFig5(w, rows)
		return rows, map[string]string{"fig5": SVGFig5(rows)}
	}},
	{Name: "fig6", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig6(Fig6Options{Seed: seed})
		PrintFig6(w, rows)
		return rows, nil
	}},
	{Name: "fig8", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig8(Fig8Options{Seed: seed})
		PrintFig8(w, rows)
		return rows, nil
	}},
	{Name: "fig9", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig9(25, seed)
		PrintFig9(w, rows)
		return rows, nil
	}},
	{Name: "fig12", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig12(Fig12Options{Seed: seed})
		PrintFig12(w, rows)
		return rows, nil
	}},
	{Name: "table1", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Table1(Table1Options{Seed: seed})
		PrintTable1(w, rows)
		return rows, nil
	}},
	{Name: "fig13", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig13(Fig13Options{Seed: seed, WithTimeline: true})
		PrintFig13(w, rows)
		return rows, map[string]string{"fig13": SVGFig13(rows)}
	}},
	{Name: "fig14", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig14(Fig14Options{Seed: seed})
		PrintFig14(w, rows)
		return rows, map[string]string{"fig14": SVGFig14(rows)}
	}},
	{Name: "fig15", WallClock: true, Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig15()
		PrintFig15(w, rows)
		return rows, nil
	}},
	{Name: "fig16", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Fig16(Fig16Options{Seed: seed})
		PrintFig16(w, rows)
		return rows, map[string]string{"fig16": SVGFig16(rows)}
	}},
	{Name: "ext-pools", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PoolComparison(PoolComparisonOptions{Seed: seed})
		PrintPoolComparison(w, rows)
		return rows, nil
	}},
	{Name: "ext-coldstart", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := ColdStartTiming(ColdStartTimingOptions{Seed: seed})
		PrintColdStartTiming(w, rows)
		return rows, nil
	}},
	{Name: "ext-readahead", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Readahead(ReadaheadOptions{Seed: seed})
		PrintReadahead(w, rows)
		return rows, map[string]string{"ext-readahead": SVGReadahead(rows)}
	}},
	{Name: "ext-keepalive", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := KeepAliveStrategies(KeepAliveStrategiesOptions{Seed: seed})
		PrintKeepAliveStrategies(w, rows)
		return rows, nil
	}},
	{Name: "ext-percentile", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PercentileSweep(PercentileSweepOptions{Seed: seed})
		PrintPercentileSweep(w, rows)
		return rows, nil
	}},
	{Name: "ext-rack", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := RackDensity(RackDensityOptions{Seed: seed})
		PrintRackDensity(w, rows)
		return rows, nil
	}},
	{Name: "ext-attrib", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := AttribPressure(AttribPressureOptions{Seed: seed})
		PrintAttribPressure(w, rows)
		return rows, nil
	}},
	{Name: "ext-pool-density", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := PoolDensity(PoolDensityOptions{Seed: seed})
		PrintPoolDensity(w, rows)
		return rows, nil
	}},
	{Name: "ext-merge", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := MergeDomains(MergeDomainsOptions{Seed: seed})
		PrintMergeDomains(w, rows)
		return rows, nil
	}},
	{Name: "ext-resilience", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		rows := Resilience(ResilienceOptions{Seed: seed, FaultSeed: seed})
		PrintResilience(w, rows)
		return rows, nil
	}},
	{Name: "ext-observe", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		cells := Observe(ObserveOptions{Seed: seed, FaultSeed: seed})
		PrintObserve(w, cells)
		return cells, nil
	}},
	{Name: "ext-drilldown", Run: func(w io.Writer, seed int64) (any, map[string]string) {
		cells := Drilldown(DrilldownOptions{Seed: seed, FaultSeed: seed})
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
