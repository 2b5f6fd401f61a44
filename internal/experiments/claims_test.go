package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
)

// claim is one statement of the paper's evaluation, checked on one registry
// entry's seed-42 rows from the shared registry run. EXPERIMENTS.md quotes
// each claim's value in exactly one cell marked with its id.
type claim struct {
	id    string // the EXPERIMENTS.md cell marker
	entry string // the Registry name whose rows eval reads
	paper string // the paper's value or statement
	// deviates marks a claim known not to hold at seed 42; EXPERIMENTS.md
	// states the deviation, and TestPaperClaims fails once it holds again.
	deviates bool
	// eval returns the cell's measured value and a nil verdict when the
	// claim holds, or an error naming every cell where it fails.
	eval func(rows any) (value string, verdict error)
}

// on adapts a check over an entry's typed rows to claim.eval.
func on[R any](f func(rows []R) (string, error)) func(any) (string, error) {
	return func(rows any) (string, error) {
		typed, ok := rows.([]R)
		if !ok {
			return "", fmt.Errorf("rows are %T, not []%T", rows, *new(R))
		}
		return f(typed)
	}
}

// violations collects the cells where a claim fails.
type violations []string

func (v *violations) check(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

func (v violations) err() error {
	if len(v) == 0 {
		return nil
	}
	return errors.New(strings.Join(v, "; "))
}

// between renders lo–hi with one format, collapsing equal ends.
func between(format string, lo, hi float64) string {
	a, b := fmt.Sprintf(format, lo), fmt.Sprintf(format, hi)
	if a == b {
		return a
	}
	return a + "–" + b
}

// pct renders a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// minus renders a saved fraction as a negative percentage: "−42.9%".
func minus(format string, f float64) string { return "−" + fmt.Sprintf(format, 100*f) + "%" }

// find returns the first row match accepts, or the zero row when none does.
func find[R any](rows []R, match func(R) bool) R {
	if i := slices.IndexFunc(rows, match); i >= 0 {
		return rows[i]
	}
	var zero R
	return zero
}

// figApps are the paper's three applications; every other benchmark is a
// micro-benchmark.
var figApps = []string{"bert", "graph", "web"}

func fig1At(rows []Fig1Row, d time.Duration) Fig1Row {
	return find(rows, func(r Fig1Row) bool { return r.Timeout == d })
}

func fig12At(rows []Fig12Row, load, bench string, pk PolicyKind) Fig12Row {
	return find(rows, func(r Fig12Row) bool { return r.Load == load && r.Bench == bench && r.Policy == pk })
}

// fig12Saving renders one load's FaaSMem memory saving range, per app and
// across the micro-benchmarks, and fails wherever FaaSMem is not below the
// baseline.
func fig12Saving(rows []Fig12Row, load string) (string, error) {
	var v violations
	lo, hi := math.Inf(1), math.Inf(-1)
	microLo, microHi := math.Inf(1), math.Inf(-1)
	apps := map[string]float64{}
	for _, r := range rows {
		if r.Load != load || r.Policy != FaaSMem {
			continue
		}
		base := fig12At(rows, load, r.Bench, Baseline)
		v.check(r.AvgLocalMB < base.AvgLocalMB, "%s/%s: FaaSMem mem %.1f not below baseline %.1f",
			load, r.Bench, r.AvgLocalMB, base.AvgLocalMB)
		saving := 1 - r.MemVsBase
		lo, hi = min(lo, saving), max(hi, saving)
		if slices.Contains(figApps, r.Bench) {
			apps[r.Bench] = saving
		} else {
			microLo, microHi = min(microLo, saving), max(microHi, saving)
		}
	}
	return fmt.Sprintf("%s (bert %s, graph %s, web %s, micros %s…%s)",
		between("%.1f%%", 100*lo, 100*hi), minus("%.1f", apps["bert"]), minus("%.1f", apps["graph"]),
		minus("%.1f", apps["web"]), minus("%.0f", microLo), minus("%.0f", microHi)), v.err()
}

func fig13At(rows []Fig13Row, cs string, v PolicyKind) Fig13Row {
	return find(rows, func(r Fig13Row) bool { return r.Case == cs && r.Variant == v })
}

// fig13OrderSeeds states where fig13-common-order holds over seeds 1–10 and
// 42, measured by a Fig13-only sweep of those seeds at the registry's 1 h
// window and the paper's 4 h one: seeds 4, 7 and 42 at 1 h, and 7, 10 and 42
// at 4 h.
const fig13OrderSeeds = "holds at 3/11 seeds at 1 h, 3/11 at 4 h"

// fig13Costs renders what removing one mechanism costs in one case, as a
// multiple of FaaSMem's memory, and fails unless it costs memory.
func fig13Costs(cs string, without PolicyKind) func([]Fig13Row) (string, error) {
	return func(rows []Fig13Row) (string, error) {
		full, abl := fig13At(rows, cs, FaaSMem), fig13At(rows, cs, without)
		var v violations
		v.check(abl.AvgMemMB > full.AvgMemMB, "%s: %s mem %.0f MB not above FaaSMem's %.0f MB",
			cs, without, abl.AvgMemMB, full.AvgMemMB)
		return fmt.Sprintf("%.2f×", abl.AvgMemMB/full.AvgMemMB), v.err()
	}
}

func fig14Median(rows []Fig14Class, class string) float64 {
	return find(rows, func(r Fig14Class) bool { return r.Class.String() == class }).MedianShare
}

// fig16Corr renders Pearson's r between one Fig 16 input column and density
// per app, and fails unless every app's r has the wanted sign by a margin of
// 0.2. n is the per-app sample count.
func fig16Corr(x func(Fig16Row) float64, positive bool) func([]Fig16Row) (string, error) {
	return func(rows []Fig16Row) (string, error) {
		var v violations
		var rs []string
		n := 0
		for _, app := range figApps {
			var xs, density []float64
			for _, r := range rows {
				if r.App == app {
					xs = append(xs, x(r))
					density = append(density, r.Density)
				}
			}
			n = len(xs)
			r := pearson(xs, density)
			if positive {
				v.check(r > 0.2, "%s: r = %.2f, want clearly positive", app, r)
			} else {
				v.check(r < -0.2, "%s: r = %.2f, want clearly negative", app, r)
			}
			rs = append(rs, strings.Replace(fmt.Sprintf("%.2f", r), "-", "−", 1))
		}
		return fmt.Sprintf("r = %s (bert/graph/web, n = %d each)", strings.Join(rs, " / "), n), v.err()
	}
}

func table1Ratio(rows []Table1Row, id int, app string, pk PolicyKind) float64 {
	return find(rows, func(r Table1Row) bool { return r.TraceID == id && r.App == app && r.Policy == pk }).OffloadRatio
}

// table1Offload renders one app's FaaSMem offload-ratio range over the six
// traces, and fails on any trace where FaaSMem offloads no more than TMO.
func table1Offload(app string) func([]Table1Row) (string, error) {
	return func(rows []Table1Row) (string, error) {
		var v violations
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if r.App != app || r.Policy != FaaSMem {
				continue
			}
			tmo := table1Ratio(rows, r.TraceID, app, TMO)
			v.check(r.OffloadRatio > tmo, "trace %d %s: FaaSMem ratio %.2f <= TMO %.2f", r.TraceID, app, r.OffloadRatio, tmo)
			lo, hi = min(lo, r.OffloadRatio), max(hi, r.OffloadRatio)
		}
		return between("%.0f%%", 100*lo, 100*hi), v.err()
	}
}

func coldStartAt(rows []ColdStartTimingRow, cs string, corrected bool) ColdStartTimingRow {
	return find(rows, func(r ColdStartTimingRow) bool { return r.Case == cs && r.Corrected == corrected })
}

func keepAliveAt(rows []KeepAliveRow, strategy string, pk PolicyKind) KeepAliveRow {
	return find(rows, func(r KeepAliveRow) bool { return r.Strategy == strategy && r.Policy == pk })
}

func poolAt(rows []PoolRow, name string) PoolRow {
	return find(rows, func(r PoolRow) bool { return r.Pool == name })
}

func densityAt(rows []PoolDensityRow, dramMB int, mode PoolDensityMode) PoolDensityRow {
	return find(rows, func(r PoolDensityRow) bool { return r.DRAMMB == dramMB && r.Mode == mode })
}

// densityDRAMs lists the node DRAM sizes of the ext-pool-density rows.
func densityDRAMs(rows []PoolDensityRow) []int {
	var out []int
	for _, r := range rows {
		if !slices.Contains(out, r.DRAMMB) {
			out = append(out, r.DRAMMB)
		}
	}
	return out
}

func mergeAt(rows []MergeDomainsRow, scope memnode.MergeScope, ratio float64) MergeDomainsRow {
	return find(rows, func(r MergeDomainsRow) bool { return r.Scope == scope && r.WriteRatio == ratio })
}

// statefulAt returns a shape's row at its declared width and the default
// 512 MB DRAM tier.
func statefulAt(rows []StatefulRow, wf, mode string) StatefulRow {
	return find(rows, func(r StatefulRow) bool {
		return r.Workflow == wf && r.Mode == mode && r.Width == 0 && r.PressureMB == 512
	})
}

// claims is the table of the paper's evaluation claims, in EXPERIMENTS.md
// order. Each shape assertion that once ran on a private, shrunk copy of an
// experiment is one of these claims over the registry's seed-42 rows.
var claims = []claim{
	// Figure 1.
	{id: "fig1-inactive-10m", entry: "fig1", paper: "89.2%", eval: on(func(rows []Fig1Row) (string, error) {
		r := fig1At(rows, 10*time.Minute)
		var v violations
		v.check(r.InactiveFraction >= 0.75, "10-minute inactive fraction = %.2f, want >= 0.75", r.InactiveFraction)
		return pct(r.InactiveFraction), v.err()
	})},
	{id: "fig1-inactive-1m", entry: "fig1", paper: "70.1%", eval: on(func(rows []Fig1Row) (string, error) {
		r := fig1At(rows, time.Minute)
		var v violations
		v.check(r.InactiveFraction >= 0.5, "1-minute inactive fraction = %.2f, want >= 0.5", r.InactiveFraction)
		return pct(r.InactiveFraction), v.err()
	})},
	{id: "fig1-cold-trend", entry: "fig1", paper: "falls from ~15% toward ~0 as timeout grows", eval: on(func(rows []Fig1Row) (string, error) {
		first, tenMin := rows[0], fig1At(rows, 10*time.Minute)
		var v violations
		v.check(first.ColdStartRatio > tenMin.ColdStartRatio, "cold-start ratio %.3f at %v not above %.3f at 10m",
			first.ColdStartRatio, first.Timeout, tenMin.ColdStartRatio)
		return fmt.Sprintf("%s @10 s → %s @10 min", pct(first.ColdStartRatio), pct(tenMin.ColdStartRatio)), v.err()
	})},
	{id: "fig1-tradeoff", entry: "fig1", paper: "longer keep-alive ⇒ more idle memory, fewer cold starts", eval: on(func(rows []Fig1Row) (string, error) {
		var v violations
		for i := 1; i < len(rows); i++ {
			prev, cur := rows[i-1], rows[i]
			v.check(cur.InactiveFraction > prev.InactiveFraction, "inactive fraction %.3f at %v not above %.3f at %v",
				cur.InactiveFraction, cur.Timeout, prev.InactiveFraction, prev.Timeout)
			v.check(cur.ColdStartRatio < prev.ColdStartRatio, "cold-start ratio %.3f at %v not below %.3f at %v",
				cur.ColdStartRatio, cur.Timeout, prev.ColdStartRatio, prev.Timeout)
		}
		return fmt.Sprintf("strictly monotone on both axes over %d timeouts", len(rows)), v.err()
	})},

	// Figure 2.
	{id: "fig2-slowdown", entry: "fig2", paper: "up to 14×", eval: on(func(rows []Fig2Row) (string, error) {
		var v violations
		apps := map[string]float64{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			v.check(r.Slowdown > 1, "%s: DAMON slowdown %.2f, want > 1", r.Bench, r.Slowdown)
			if slices.Contains(figApps, r.Bench) {
				apps[r.Bench] = r.Slowdown
			} else {
				lo, hi = min(lo, r.Slowdown), max(hi, r.Slowdown)
			}
		}
		return fmt.Sprintf("bert %.1f×, web %.1f×, graph %.1f×, micro-benchmarks %s×",
			apps["bert"], apps["web"], apps["graph"], between("%.1f", lo, hi)), v.err()
	})},

	// Figure 4.
	{id: "fig4-ow-python", entry: "fig4", paper: "24 MB", eval: on(func(rows []Fig4Row) (string, error) {
		var mb float64
		for _, r := range rows {
			if r.Platform.String() == "OpenWhisk" && r.Language.String() == "Python" {
				mb = r.InactiveMB
			}
		}
		var v violations
		v.check(mb >= 18 && mb <= 25, "OpenWhisk Python inactive = %.0f MB, want 18–25", mb)
		return fmt.Sprintf("%.0f MB", mb), v.err()
	})},
	{id: "fig4-azure", entry: "fig4", paper: "> 100 MB", eval: on(func(rows []Fig4Row) (string, error) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if r.Platform.String() == "Azure" {
				lo, hi = min(lo, r.InactiveMB), max(hi, r.InactiveMB)
			}
		}
		var v violations
		v.check(lo > 100, "smallest Azure runtime %.0f MB, want > 100", lo)
		return between("%.0f", lo, hi) + " MB", v.err()
	})},
	{id: "fig4-ordering", entry: "fig4", paper: "Java largest per platform; Azure ≫ OpenWhisk", eval: on(func(rows []Fig4Row) (string, error) {
		var v violations
		java := map[string]float64{}
		owMax, azureMin := 0.0, math.Inf(1)
		for _, r := range rows {
			v.check(r.InactiveMB > 0, "%v/%v inactive = %v", r.Platform, r.Language, r.InactiveMB)
			if r.Language.String() == "Java" {
				java[r.Platform.String()] = r.InactiveMB
			}
			if r.Platform.String() == "Azure" {
				azureMin = min(azureMin, r.InactiveMB)
			} else {
				owMax = max(owMax, r.InactiveMB)
			}
		}
		for _, r := range rows {
			v.check(r.Language.String() == "Java" || r.InactiveMB < java[r.Platform.String()],
				"%v/%v %.0f MB not below Java's %.0f MB", r.Platform, r.Language, r.InactiveMB, java[r.Platform.String()])
		}
		v.check(azureMin > owMax, "smallest Azure runtime %.0f MB not above largest OpenWhisk %.0f MB", azureMin, owMax)
		return "same", v.err()
	})},

	// Figure 5.
	{id: "fig5-le2", entry: "fig5", paper: "~60%", eval: on(func(rows []Fig5Row) (string, error) {
		share := Fig5AtMost(rows, 2)
		var v violations
		v.check(share >= 0.3, "share of containers with <= 2 requests = %.2f, want >= 0.3", share)
		return pct(share), v.err()
	})},
	{id: "fig5-shape", entry: "fig5", paper: "heavy concentration at 1–2 requests with a long tail", eval: on(func(rows []Fig5Row) (string, error) {
		var v violations
		v.check(len(rows) > 0 && rows[len(rows)-1].CumFrac == 1, "CDF must end at 1")
		for i := 1; i < len(rows); i++ {
			v.check(rows[i].CumFrac >= rows[i-1].CumFrac, "CDF falls at %d requests", rows[i].Requests)
		}
		return fmt.Sprintf("same (≤1: %s, ≤5: %s, ≤25: %s)",
			pct(Fig5AtMost(rows, 1)), pct(Fig5AtMost(rows, 5)), pct(Fig5AtMost(rows, 25))), v.err()
	})},

	// Figure 6.
	{id: "fig6-resident", entry: "fig6", paper: "below the peak (partial release)", eval: on(func(rows []Fig6Row) (string, error) {
		var peak, last float64
		for _, r := range rows {
			if r.Phase == "init" {
				peak, last = max(peak, r.ResidentMB), r.ResidentMB
			}
		}
		var v violations
		v.check(last < peak, "resident %.0f MB after init, not below the %.0f MB peak", last, peak)
		return fmt.Sprintf("%.0f MB", last), v.err()
	})},
	{id: "fig6-accessed", entry: "fig6", paper: "~610 MB", eval: on(func(rows []Fig6Row) (string, error) {
		var v violations
		var sum float64
		n := 0
		for _, r := range rows {
			if r.Phase == "request" {
				v.check(r.AccessedMB >= 500 && r.AccessedMB <= 750, "request at %.1fs accessed %.0f MB, want 500–750", r.TimeSec, r.AccessedMB)
				sum += r.AccessedMB
				n++
			}
		}
		return fmt.Sprintf("~%.0f MB", sum/float64(n)), v.err()
	})},

	// Figure 8.
	{id: "fig8-recalls", entry: "fig8", paper: "0–3 across 11 benchmarks", eval: on(func(rows []Fig8Row) (string, error) {
		var v violations
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			v.check(r.RecallPages <= 8, "%s: %d runtime recalls, want <= 8", r.Bench, r.RecallPages)
			lo, hi = min(lo, float64(r.RecallPages)), max(hi, float64(r.RecallPages))
		}
		return fmt.Sprintf("%s across %d benchmarks", between("%.0f", lo, hi), len(rows)), v.err()
	})},

	// Figure 9.
	{id: "fig9-tail", entry: "fig9", paper: "Pareto-popular cached pages with a tail", eval: on(func(rows []Fig9Row) (string, error) {
		distinct := map[float64]bool{}
		for _, r := range rows {
			for _, o := range r.Objects {
				distinct[o.StartMB] = true
			}
		}
		var v violations
		v.check(len(distinct) >= 3, "only %d distinct objects; Pareto tail missing", len(distinct))
		return fmt.Sprintf("%d distinct objects over %d requests", len(distinct), len(rows)), v.err()
	})},

	// Figure 12.
	{id: "fig12-saving-high", entry: "fig12", paper: "27.1%–71.0%", eval: on(func(rows []Fig12Row) (string, error) {
		return fig12Saving(rows, "high")
	})},
	{id: "fig12-saving-low", entry: "fig12", paper: "9.9%–72.0%", eval: on(func(rows []Fig12Row) (string, error) {
		return fig12Saving(rows, "low")
	})},
	// The paper's band is ≤ ~10%; the band checked here is the simulated
	// one, 1.3× the baseline P95 plus 50 ms.
	{id: "fig12-p95", entry: "fig12", paper: "≤ ~10% (often ≈0)", eval: on(func(rows []Fig12Row) (string, error) {
		var v violations
		var worst, next Fig12Row
		for _, r := range rows {
			if r.Policy != FaaSMem {
				continue
			}
			base := fig12At(rows, r.Load, r.Bench, Baseline)
			v.check(r.P95 <= base.P95*1.3+0.05, "%s/%s: FaaSMem P95 %.3f vs base %.3f exceeds band", r.Load, r.Bench, r.P95, base.P95)
			switch {
			case r.P95VsBase > worst.P95VsBase:
				worst, next = r, worst
			case r.P95VsBase > next.P95VsBase:
				next = r
			}
		}
		return fmt.Sprintf("≤ %+.1f%% except %s-load %s %+.1f%%",
			100*(next.P95VsBase-1), worst.Load, worst.Bench, 100*(worst.P95VsBase-1)), v.err()
	})},
	{id: "fig12-tmo", entry: "fig12", paper: "a few percent", eval: on(func(rows []Fig12Row) (string, error) {
		var v violations
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if r.Policy != TMO {
				continue
			}
			fm := fig12At(rows, r.Load, r.Bench, FaaSMem)
			v.check(fm.AvgLocalMB < r.AvgLocalMB, "%s/%s: FaaSMem mem %.1f not below TMO %.1f", r.Load, r.Bench, fm.AvgLocalMB, r.AvgLocalMB)
			lo, hi = min(lo, 1-r.MemVsBase), max(hi, 1-r.MemVsBase)
		}
		return between("%.1f%%", 100*lo, 100*hi), v.err()
	})},
	{id: "fig12-graph-worst", entry: "fig12", paper: "✓ (full-graph traversal)", eval: on(func(rows []Fig12Row) (string, error) {
		var v violations
		for _, load := range []string{"high", "low"} {
			graph := fig12At(rows, load, "graph", FaaSMem).MemVsBase
			for _, app := range []string{"bert", "web"} {
				other := fig12At(rows, load, app, FaaSMem).MemVsBase
				v.check(graph > other, "%s load: graph keeps %.3f of baseline, %s %.3f", load, graph, app, other)
			}
		}
		return "✓", v.err()
	})},
	{id: "fig12-high-beats-low", entry: "fig12", paper: "✓", eval: on(func(rows []Fig12Row) (string, error) {
		var v violations
		for _, app := range figApps {
			high, low := fig12At(rows, "high", app, FaaSMem).MemVsBase, fig12At(rows, "low", app, FaaSMem).MemVsBase
			v.check(high < low, "%s: high load keeps %.3f of baseline, low load %.3f", app, high, low)
		}
		return "✓", v.err()
	})},

	// Table 1.
	{id: "table1-web", entry: "table1", paper: "~77% (0.83 G → 0.19 G)", eval: on(table1Offload("web"))},
	{id: "table1-bert", entry: "table1", paper: "~39% (2.64 G → 1.62 G)", eval: on(table1Offload("bert"))},
	{id: "table1-graph", entry: "table1", paper: "~23% (0.77 G → 0.59 G)", eval: on(table1Offload("graph"))},
	{id: "table1-order", entry: "table1", paper: "✓", eval: on(func(rows []Table1Row) (string, error) {
		var v violations
		for _, r := range rows {
			if r.App != "web" || r.Policy != FaaSMem {
				continue
			}
			bert, graph := table1Ratio(rows, r.TraceID, "bert", FaaSMem), table1Ratio(rows, r.TraceID, "graph", FaaSMem)
			v.check(r.OffloadRatio > bert && bert > graph, "trace %d: web %.2f, bert %.2f, graph %.2f", r.TraceID, r.OffloadRatio, bert, graph)
		}
		return "✓ on every trace", v.err()
	})},
	{id: "table1-tmo", entry: "table1", paper: "✓", eval: on(func(rows []Table1Row) (string, error) {
		tmoLo, tmoHi, fmLo := math.Inf(1), math.Inf(-1), math.Inf(1)
		for _, r := range rows {
			switch r.Policy {
			case TMO:
				tmoLo, tmoHi = min(tmoLo, r.OffloadRatio), max(tmoHi, r.OffloadRatio)
			case FaaSMem:
				fmLo = min(fmLo, r.OffloadRatio)
			}
		}
		var v violations
		v.check(tmoHi < fmLo, "TMO offloads up to %.2f, FaaSMem as little as %.2f", tmoHi, fmLo)
		return between("%.0f", 100*tmoLo, 100*tmoHi) + "% everywhere", v.err()
	})},

	// Figure 13.
	{id: "fig13-baseline", entry: "fig13", paper: "FaaSMem saves memory in both cases", eval: on(func(rows []Fig13Row) (string, error) {
		var v violations
		var ratios []string
		for _, cs := range []string{"common", "bursty"} {
			base, full := fig13At(rows, cs, Baseline), fig13At(rows, cs, FaaSMem)
			v.check(full.AvgMemMB < base.AvgMemMB, "%s: FaaSMem mem %.0f MB not below baseline %.0f MB", cs, full.AvgMemMB, base.AvgMemMB)
			ratios = append(ratios, fmt.Sprintf("%s %.2f×", cs, base.AvgMemMB/full.AvgMemMB))
		}
		return strings.Join(ratios, ", "), v.err()
	})},
	{id: "fig13-common-nopucket", entry: "fig13", paper: "+19.3%", eval: on(fig13Costs("common", FaaSMemNoPucket))},
	{id: "fig13-common-nosemi", entry: "fig13", paper: "+28.6%", eval: on(fig13Costs("common", FaaSMemNoSemi))},
	{id: "fig13-common-order", entry: "fig13", paper: "w/o Semi-warm +28.6% > w/o Pucket +19.3%", eval: on(func(rows []Fig13Row) (string, error) {
		full := fig13At(rows, "common", FaaSMem)
		noP, noS := fig13At(rows, "common", FaaSMemNoPucket), fig13At(rows, "common", FaaSMemNoSemi)
		var v violations
		v.check(noS.AvgMemMB > noP.AvgMemMB, "common: w/o Semi-warm mem %.0f MB not above w/o Pucket's %.0f MB",
			noS.AvgMemMB, noP.AvgMemMB)
		return fmt.Sprintf("%.2f× vs %.2f×; %s", noS.AvgMemMB/full.AvgMemMB, noP.AvgMemMB/full.AvgMemMB,
			fig13OrderSeeds), v.err()
	})},
	{id: "fig13-bursty-nopucket", entry: "fig13", paper: "w/o Pucket ≈ enabled", eval: on(fig13Costs("bursty", FaaSMemNoPucket))},
	{id: "fig13-bursty-nosemi", entry: "fig13", paper: "semi-warm recovers most of Pucket's benefit", eval: on(fig13Costs("bursty", FaaSMemNoSemi))},
	{id: "fig13-bursty-p99", entry: "fig13", paper: "+25.0% vs w/o semi-warm", eval: on(func(rows []Fig13Row) (string, error) {
		full, noS := fig13At(rows, "bursty", FaaSMem), fig13At(rows, "bursty", FaaSMemNoSemi)
		var v violations
		v.check(full.P99 > noS.P99, "bursty FaaSMem P99 %.3f s not above w/o semi-warm %.3f s", full.P99, noS.P99)
		return fmt.Sprintf("%.3f s vs %.3f s", full.P99, noS.P99), v.err()
	})},

	// Figure 14.
	{id: "fig14-low", entry: "fig14", paper: "✓ (containers never reused)", eval: on(func(rows []Fig14Class) (string, error) {
		low := fig14Median(rows, "low")
		var v violations
		v.check(low > 0.5, "low-load median share %.3f, want > 0.5", low)
		return pct(low), v.err()
	})},
	{id: "fig14-medium", entry: "fig14", paper: "✓ (stable long-lived containers)", eval: on(func(rows []Fig14Class) (string, error) {
		high, medium, low := fig14Median(rows, "high"), fig14Median(rows, "medium"), fig14Median(rows, "low")
		var v violations
		v.check(medium < high && medium < low, "medium-load median share %.3f not below high %.3f and low %.3f", medium, high, low)
		return pct(medium), v.err()
	})},
	{id: "fig14-high", entry: "fig14", paper: "helped by surge-created short-lived containers", eval: on(func(rows []Fig14Class) (string, error) {
		high, medium := fig14Median(rows, "high"), fig14Median(rows, "medium")
		var v violations
		v.check(high > medium, "high-load median share %.3f not above medium %.3f", high, medium)
		return pct(high), v.err()
	})},

	// Figure 16.
	{id: "fig16-density", entry: "fig16", paper: "up to 1.4× / 1.4× / 2.2×", eval: on(func(rows []Fig16Row) (string, error) {
		var v violations
		top := map[string]float64{}
		for _, r := range rows {
			v.check(r.Density >= 1, "%s trace %d: density %.2f < 1", r.App, r.TraceID, r.Density)
			top[r.App] = max(top[r.App], r.Density)
		}
		return fmt.Sprintf("up to %.1f× / %.1f× / %.1f×", top["bert"], top["graph"], top["web"]), v.err()
	})},
	{id: "fig16-web-most", entry: "fig16", paper: "✓", eval: on(func(rows []Fig16Row) (string, error) {
		top := map[string]float64{}
		for _, r := range rows {
			top[r.App] = max(top[r.App], r.Density)
		}
		var v violations
		for _, app := range []string{"bert", "graph"} {
			v.check(top["web"] > top[app], "web max density %.2f should exceed %s %.2f", top["web"], app, top[app])
		}
		return "✓", v.err()
	})},
	{id: "fig16-corr-load", entry: "fig16", paper: "✓", eval: on(fig16Corr(func(r Fig16Row) float64 { return r.ReqPerMinute }, true))},
	{id: "fig16-corr-sigma", entry: "fig16", paper: "✓", eval: on(fig16Corr(func(r Fig16Row) float64 { return r.IntervalSigmaSec }, false))},

	// ext-pools.
	{id: "pools-cxl", entry: "ext-pools", paper: "CXL works at least as well as RDMA", eval: on(func(rows []PoolRow) (string, error) {
		rdma, cxl := poolAt(rows, "rdma-56g"), poolAt(rows, "cxl")
		var v violations
		v.check(cxl.P99 <= rdma.P99+1e-9, "CXL P99 %.3f worse than RDMA %.3f", cxl.P99, rdma.P99)
		return fmt.Sprintf("CXL P99 %.2f s vs RDMA %.2f s", cxl.P99, rdma.P99), v.err()
	})},
	{id: "pools-ssd-offload", entry: "ext-pools", paper: "SSDs can't sustain the bandwidth", eval: on(func(rows []PoolRow) (string, error) {
		rdma, ssd := poolAt(rows, "rdma-56g"), poolAt(rows, "ssd")
		var v violations
		v.check(ssd.OffloadedMB < rdma.OffloadedMB, "SSD offloaded %.0f MB, want below RDMA's %.0f MB", ssd.OffloadedMB, rdma.OffloadedMB)
		return fmt.Sprintf("SSD offloads %.1f GB against RDMA's %.1f GB", ssd.OffloadedMB/1000, rdma.OffloadedMB/1000), v.err()
	})},
	{id: "pools-ssd-local", entry: "ext-pools", paper: "SSDs can't sustain the bandwidth", eval: on(func(rows []PoolRow) (string, error) {
		rdma, ssd := poolAt(rows, "rdma-56g"), poolAt(rows, "ssd")
		var v violations
		v.check(ssd.AvgLocalMB > rdma.AvgLocalMB, "SSD avg local %.0f MB should exceed RDMA's %.0f MB", ssd.AvgLocalMB, rdma.AvgLocalMB)
		return fmt.Sprintf("%.1f GB stranded locally", ssd.AvgLocalMB/1000), v.err()
	})},
	{id: "pools-ssd-p99", entry: "ext-pools", paper: "SSDs can't sustain the bandwidth", eval: on(func(rows []PoolRow) (string, error) {
		rdma, ssd := poolAt(rows, "rdma-56g"), poolAt(rows, "ssd")
		var v violations
		v.check(ssd.P99 >= rdma.P99, "SSD P99 %.3f should not beat RDMA's %.3f", ssd.P99, rdma.P99)
		return fmt.Sprintf("SSD P99 %.1f s", ssd.P99), v.err()
	})},

	// ext-coldstart.
	{id: "coldstart-p99", entry: "ext-coldstart", paper: "cold-start-censored intervals misestimate timing under burst", eval: on(func(rows []ColdStartTimingRow) (string, error) {
		var v violations
		var cells []string
		for _, cs := range []string{"common", "bursty"} {
			plain, fixed := coldStartAt(rows, cs, false), coldStartAt(rows, cs, true)
			v.check(fixed.P99 <= plain.P99+1e-9, "%s: corrected timing worsened P99 (%.3f > %.3f)", cs, fixed.P99, plain.P99)
			cells = append(cells, fmt.Sprintf("%s %.3f → %.3f s", cs, plain.P99, fixed.P99))
		}
		return "never worsens P99 (" + strings.Join(cells, ", ") + ")", v.err()
	})},
	{id: "coldstart-memory", entry: "ext-coldstart", paper: "cold-start-censored intervals misestimate timing under burst", eval: on(func(rows []ColdStartTimingRow) (string, error) {
		var v violations
		worst := 0.0
		for _, cs := range []string{"common", "bursty"} {
			plain, fixed := coldStartAt(rows, cs, false), coldStartAt(rows, cs, true)
			v.check(fixed.AvgMemMB >= plain.AvgMemMB-1, "%s: corrected timing reduced memory (%.0f < %.0f), impossible", cs, fixed.AvgMemMB, plain.AvgMemMB)
			worst = max(worst, fixed.AvgMemMB/plain.AvgMemMB-1)
		}
		return fmt.Sprintf("costs ≤ %.1f%% memory", 100*worst), v.err()
	})},

	// ext-readahead.
	{id: "readahead-faults", entry: "ext-readahead", paper: "§10: prefetching (Leap) helps the recall path", eval: on(func(rows []ReadaheadRow) (string, error) {
		var v violations
		var eight ReadaheadRow
		for _, r := range rows[1:] {
			v.check(r.FaultPages < rows[0].FaultPages, "window %d: blocking faults %d not below baseline %d", r.Window, r.FaultPages, rows[0].FaultPages)
			if r.Window == 8 {
				eight = r
			}
		}
		return fmt.Sprintf("readahead 8 cuts blocking faults %.1f×", float64(rows[0].FaultPages)/float64(eight.FaultPages)), v.err()
	})},
	{id: "readahead-wider", entry: "ext-readahead", paper: "§10: prefetching (Leap) helps the recall path", eval: on(func(rows []ReadaheadRow) (string, error) {
		narrow, wide := rows[1], rows[len(rows)-1]
		var v violations
		v.check(wide.FaultPages < narrow.FaultPages, "readahead %d (%d faults) should beat readahead %d (%d)",
			wide.Window, wide.FaultPages, narrow.Window, narrow.FaultPages)
		return fmt.Sprintf("%d pages leave %d blocking faults, %d pages %d", narrow.Window, narrow.FaultPages, wide.Window, wide.FaultPages), v.err()
	})},
	{id: "readahead-p99", entry: "ext-readahead", paper: "§10: prefetching (Leap) helps the recall path", eval: on(func(rows []ReadaheadRow) (string, error) {
		var v violations
		var eight ReadaheadRow
		for _, r := range rows[1:] {
			v.check(r.P99 <= rows[0].P99+1e-9, "readahead %d worsened P99: %.3f vs %.3f", r.Window, r.P99, rows[0].P99)
			if r.Window == 8 {
				eight = r
			}
		}
		return fmt.Sprintf("bursty P99 from %.2f s to %.2f s", rows[0].P99, eight.P99), v.err()
	})},

	// ext-keepalive.
	{id: "keepalive-faasmem", entry: "ext-keepalive", paper: "§10: combining FaaSMem with keep-alive policies gains more", eval: on(func(rows []KeepAliveRow) (string, error) {
		base, fm := keepAliveAt(rows, "fixed-10m", Baseline), keepAliveAt(rows, "fixed-10m", FaaSMem)
		var v violations
		v.check(fm.AvgLocalMB < base.AvgLocalMB, "FaaSMem alone did not save memory (%.0f vs %.0f MB)", fm.AvgLocalMB, base.AvgLocalMB)
		return "FaaSMem alone " + minus("%.0f", 1-fm.AvgLocalMB/base.AvgLocalMB) + " memory", v.err()
	})},
	{id: "keepalive-adaptive", entry: "ext-keepalive", paper: "§10: combining FaaSMem with keep-alive policies gains more", eval: on(func(rows []KeepAliveRow) (string, error) {
		fixed, adapt := keepAliveAt(rows, "fixed-10m", Baseline), keepAliveAt(rows, "adaptive", Baseline)
		var v violations
		v.check(adapt.AvgLocalMB < fixed.AvgLocalMB, "adaptive keep-alive alone did not save memory (%.0f vs %.0f MB)", adapt.AvgLocalMB, fixed.AvgLocalMB)
		return fmt.Sprintf("adaptive keep-alive alone %s memory at %+.2f points of cold-start ratio",
			minus("%.0f", 1-adapt.AvgLocalMB/fixed.AvgLocalMB), 100*(adapt.ColdStartRatio-fixed.ColdStartRatio)), v.err()
	})},
	// Adaptive keep-alive adds little once FaaSMem has drained the idle
	// memory, so the combination may tie either technique within 5%.
	{id: "keepalive-combined", entry: "ext-keepalive", paper: "§10: combining FaaSMem with keep-alive policies gains more", eval: on(func(rows []KeepAliveRow) (string, error) {
		fixedFM, adaptBase, both := keepAliveAt(rows, "fixed-10m", FaaSMem), keepAliveAt(rows, "adaptive", Baseline), keepAliveAt(rows, "adaptive", FaaSMem)
		var v violations
		v.check(both.AvgLocalMB <= fixedFM.AvgLocalMB*1.05 && both.AvgLocalMB <= adaptBase.AvgLocalMB*1.05,
			"combination (%.0f MB) should not lose to FaaSMem-only (%.0f) or adaptive-only (%.0f)", both.AvgLocalMB, fixedFM.AvgLocalMB, adaptBase.AvgLocalMB)
		return fmt.Sprintf("the combination keeps %.0f MB against %.0f MB (FaaSMem only) and %.0f MB (adaptive only)",
			both.AvgLocalMB, fixedFM.AvgLocalMB, adaptBase.AvgLocalMB), v.err()
	})},

	// ext-percentile.
	{id: "percentile-memory", entry: "ext-percentile", paper: "§6.1: pessimistic (99th-percentile) timing protects the tail", eval: on(func(rows []PercentileRow) (string, error) {
		lo, hi := rows[0], rows[len(rows)-1]
		var v violations
		v.check(lo.AvgMemMB <= hi.AvgMemMB*1.02, "P%g memory %.0f should be <= P%g memory %.0f", lo.Percentile, lo.AvgMemMB, hi.Percentile, hi.AvgMemMB)
		return fmt.Sprintf("%.0f MB", hi.AvgMemMB-lo.AvgMemMB), v.err()
	})},
	{id: "percentile-starts", entry: "ext-percentile", paper: "§6.1: pessimistic (99th-percentile) timing protects the tail", eval: on(func(rows []PercentileRow) (string, error) {
		lo, hi := rows[0], rows[len(rows)-1]
		var v violations
		v.check(lo.SemiWarmStarts >= hi.SemiWarmStarts, "P%g semi-warm starts %d < P%g %d", lo.Percentile, lo.SemiWarmStarts, hi.Percentile, hi.SemiWarmStarts)
		return fmt.Sprintf("%d→%d semi-warm starts", lo.SemiWarmStarts, hi.SemiWarmStarts), v.err()
	})},
	// At P99 timing the P95 should stay near the warm time; 0.2 s holds on
	// TestPercentileSweepShape's 12-minute run but not on the seed-42 row.
	{id: "percentile-p95", entry: "ext-percentile", paper: "at P99 timing, P95 stays near the warm time", deviates: true, eval: on(func(rows []PercentileRow) (string, error) {
		hi := rows[len(rows)-1]
		var v violations
		v.check(hi.P95 <= 0.2, "P%g timing still hurts P95: %.3f s", hi.Percentile, hi.P95)
		return fmt.Sprintf("%.3f s", hi.P95), v.err()
	})},

	// ext-rack.
	{id: "rack-evictions", entry: "ext-rack", paper: "§8.6/§9: pooling raises density", eval: on(func(rows []RackRow) (string, error) {
		base, fm := rows[0], rows[1]
		var v violations
		v.check(fm.Evicted <= base.Evicted, "FaaSMem evicted %d > baseline %d", fm.Evicted, base.Evicted)
		return fmt.Sprintf("FaaSMem evicts %d containers vs baseline's %d", fm.Evicted, base.Evicted), v.err()
	})},
	{id: "rack-coldstart", entry: "ext-rack", paper: "§8.6/§9: pooling raises density", eval: on(func(rows []RackRow) (string, error) {
		base, fm := rows[0], rows[1]
		var v violations
		v.check(fm.ColdStartRatio <= base.ColdStartRatio+1e-9, "FaaSMem cold ratio %.3f > baseline %.3f", fm.ColdStartRatio, base.ColdStartRatio)
		return fmt.Sprintf("cold-start ratio %.2f%% vs %.2f%%", 100*fm.ColdStartRatio, 100*base.ColdStartRatio), v.err()
	})},
	{id: "rack-memory", entry: "ext-rack", paper: "§8.6/§9: pooling raises density", eval: on(func(rows []RackRow) (string, error) {
		base, fm := rows[0], rows[1]
		var v violations
		v.check(fm.AvgLocalMB < base.AvgLocalMB, "FaaSMem rack memory %.0f not below baseline %.0f", fm.AvgLocalMB, base.AvgLocalMB)
		return minus("%.0f", 1-fm.AvgLocalMB/base.AvgLocalMB) + " rack memory", v.err()
	})},

	// ext-attrib.
	{id: "attrib-memory", entry: "ext-attrib", paper: "Fig. 2: reclaiming harder costs latency", eval: on(func(rows []AttribRow) (string, error) {
		var v violations
		for i := 1; i < len(rows); i++ {
			v.check(rows[i].AvgLocalMB <= rows[i-1].AvgLocalMB+1e-9, "avg local memory must fall with pressure: %.2f MB at %v, %.2f MB at %v",
				rows[i-1].AvgLocalMB, rows[i-1].SemiWarmDelay, rows[i].AvgLocalMB, rows[i].SemiWarmDelay)
		}
		first, last := rows[0], rows[len(rows)-1]
		return fmt.Sprintf("%.0f→%.0f MB", first.AvgLocalMB, last.AvgLocalMB), v.err()
	})},
	{id: "attrib-stall", entry: "ext-attrib", paper: "Fig. 2: reclaiming harder costs latency", eval: on(func(rows []AttribRow) (string, error) {
		var v violations
		for i := 1; i < len(rows); i++ {
			v.check(rows[i].MeanStallShare >= rows[i-1].MeanStallShare-1e-9, "remote-stall share must rise with pressure: %.4f at %v, %.4f at %v",
				rows[i-1].MeanStallShare, rows[i-1].SemiWarmDelay, rows[i].MeanStallShare, rows[i].SemiWarmDelay)
		}
		first, last := rows[0], rows[len(rows)-1]
		v.check(last.MeanStallShare > first.MeanStallShare, "sweep must show real damage growth: share %.4f -> %.4f", first.MeanStallShare, last.MeanStallShare)
		return fmt.Sprintf("%s→%s", pct(first.MeanStallShare), pct(last.MeanStallShare)), v.err()
	})},
	{id: "attrib-stall-p99", entry: "ext-attrib", paper: "Fig. 2: reclaiming harder costs latency", eval: on(func(rows []AttribRow) (string, error) {
		first, last := rows[0], rows[len(rows)-1]
		var v violations
		v.check(last.StallShareP99 >= first.StallShareP99, "P99 stall share must not fall with pressure: %.4f -> %.4f", first.StallShareP99, last.StallShareP99)
		return fmt.Sprintf("%s→%s", pct(first.StallShareP99), pct(last.StallShareP99)), v.err()
	})},

	// ext-pool-density.
	{id: "density-off", entry: "ext-pool-density", paper: "raw DRAM", eval: on(func(rows []PoolDensityRow) (string, error) {
		var v violations
		for _, mb := range densityDRAMs(rows) {
			off := densityAt(rows, mb, DensityOff)
			v.check(off.Amplification == 1.0, "%d MB: off baseline amplification = %.3f, want exactly 1.0", mb, off.Amplification)
			v.check(off.LogicalPeakMB > 0 && off.LogicalPeakMB == off.ResidentPeakMB,
				"%d MB: off baseline logical/resident = %.1f/%.1f, want equal and positive", mb, off.LogicalPeakMB, off.ResidentPeakMB)
		}
		return "1.00×", v.err()
	})},
	{id: "density-dedup", entry: "ext-pool-density", paper: "§9: dedup across a function's containers", eval: on(func(rows []PoolDensityRow) (string, error) {
		var v violations
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, mb := range densityDRAMs(rows) {
			dd := densityAt(rows, mb, DensityDedup)
			v.check(dd.Amplification >= 1.1, "%d MB: dedup-only amplification = %.2fx, want >= 1.1x", mb, dd.Amplification)
			lo, hi = min(lo, dd.Amplification), max(hi, dd.Amplification)
		}
		return between("%.2f", lo, hi) + "×", v.err()
	})},
	{id: "density-zswap", entry: "ext-pool-density", paper: "§9: compress when cold", eval: on(func(rows []PoolDensityRow) (string, error) {
		var v violations
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, mb := range densityDRAMs(rows) {
			off, full := densityAt(rows, mb, DensityOff), densityAt(rows, mb, DensityDedupZswap)
			ratio := full.Amplification / off.Amplification
			v.check(ratio >= 1.5, "%d MB: dedup+zswap amplification %.2fx over baseline, want >= 1.5x", mb, ratio)
			v.check(full.DedupHitPages > 0 && full.CompressedPages > 0, "%d MB: expected both mechanisms active: %+v", mb, full)
			lo, hi = min(lo, full.Amplification), max(hi, full.Amplification)
		}
		return between("%.2f", lo, hi) + "×", v.err()
	})},
	{id: "density-requests", entry: "ext-pool-density", paper: "density must not cost latency", eval: on(func(rows []PoolDensityRow) (string, error) {
		var v violations
		for _, r := range rows {
			off := densityAt(rows, r.DRAMMB, DensityOff)
			v.check(r.Requests == off.Requests && r.ColdStartRatio == off.ColdStartRatio,
				"%d MB %s: %d requests at %.4f cold, off serves %d at %.4f", r.DRAMMB, r.Mode, r.Requests, r.ColdStartRatio, off.Requests, off.ColdStartRatio)
		}
		return fmt.Sprintf("%d requests and a %.2f%% cold-start ratio in every mode", rows[0].Requests, 100*rows[0].ColdStartRatio), v.err()
	})},

	// ext-merge.
	{id: "merge-amplification", entry: "ext-merge", paper: "wider merge domains buy more density", eval: on(func(rows []MergeDomainsRow) (string, error) {
		fun, ten, cross := mergeAt(rows, memnode.MergeFunction, 0), mergeAt(rows, memnode.MergeTenant, 0), mergeAt(rows, memnode.MergeCrossTenant, 0)
		var v violations
		v.check(cross.Amplification > ten.Amplification && ten.Amplification > fun.Amplification,
			"amplification not monotone in scope: function %.3f, tenant %.3f, cross %.3f", fun.Amplification, ten.Amplification, cross.Amplification)
		v.check(fun.MergedPages == 0, "function scope merged %d pages, want 0", fun.MergedPages)
		v.check(ten.MergedPages > 0 && cross.MergedPages > ten.MergedPages, "merged pages should grow with scope: tenant %d, cross %d", ten.MergedPages, cross.MergedPages)
		return fmt.Sprintf("function %.2f×, tenant %.2f×, cross-tenant %.2f×", fun.Amplification, ten.Amplification, cross.Amplification), v.err()
	})},
	{id: "merge-requests", entry: "ext-merge", paper: "merging must not change scheduling", eval: on(func(rows []MergeDomainsRow) (string, error) {
		fun, ten, cross := mergeAt(rows, memnode.MergeFunction, 0), mergeAt(rows, memnode.MergeTenant, 0), mergeAt(rows, memnode.MergeCrossTenant, 0)
		var v violations
		v.check(ten.Requests == fun.Requests && cross.Requests == fun.Requests, "requests differ across scopes: %d/%d/%d", fun.Requests, ten.Requests, cross.Requests)
		for _, r := range []MergeDomainsRow{fun, ten, cross} {
			v.check(r.UnmergeBreaks == 0 && r.UnmergedPages == 0, "read-only %s row broke masters: %+v", r.Scope, r)
		}
		return "identical requests and no unmerge breaks in every read-only cell", v.err()
	})},
	{id: "merge-cow", entry: "ext-merge", paper: "priced by CoW unmerge on writes", eval: on(func(rows []MergeDomainsRow) (string, error) {
		var v violations
		breaksLo, breaksHi, pagesLo, pagesHi := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
		for _, sc := range memnode.MergeScopes() {
			hot := mergeAt(rows, sc, 0.3)
			v.check(hot.UnmergeBreaks > 0 && hot.UnmergedPages > 0, "write-hot %s row produced no unmerge breaks: %+v", sc, hot)
			breaksLo, breaksHi = min(breaksLo, float64(hot.UnmergeBreaks)), max(breaksHi, float64(hot.UnmergeBreaks))
			pagesLo, pagesHi = min(pagesLo, float64(hot.UnmergedPages)), max(pagesHi, float64(hot.UnmergedPages))
		}
		return fmt.Sprintf("%s breaks, %s k pages privatized", between("%.0f", breaksLo, breaksHi), between("%.0f", pagesLo/1000, pagesHi/1000)), v.err()
	})},
	{id: "merge-erosion", entry: "ext-merge", paper: "priced by CoW unmerge on writes", eval: on(func(rows []MergeDomainsRow) (string, error) {
		var v violations
		cross, hotCross := mergeAt(rows, memnode.MergeCrossTenant, 0), mergeAt(rows, memnode.MergeCrossTenant, 0.3)
		v.check(hotCross.Amplification < cross.Amplification, "write-hot cross amplification %.3f should fall below read-only %.3f", hotCross.Amplification, cross.Amplification)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sc := range memnode.MergeScopes() {
			a := mergeAt(rows, sc, 0.3).Amplification
			lo, hi = min(lo, a), max(hi, a)
		}
		return between("%.2f", lo, hi) + "×", v.err()
	})},
	{id: "merge-cache", entry: "ext-merge", paper: "a fairness-aware multi-tenant cache tier", eval: on(func(rows []MergeDomainsRow) (string, error) {
		var v violations
		fun, cross := mergeAt(rows, memnode.MergeFunction, 0), mergeAt(rows, memnode.MergeCrossTenant, 0)
		v.check(fun.CacheHitPct == 0 && fun.CacheEvictions == 0, "function scope should run with the cache off: %+v", fun)
		v.check(cross.CacheHitPct > 0, "cross-tenant cache never hit: %+v", cross)
		ten, hotCross := mergeAt(rows, memnode.MergeTenant, 0.3), mergeAt(rows, memnode.MergeCrossTenant, 0.3)
		return fmt.Sprintf("%.0f–%.0f%%", min(ten.CacheHitPct, hotCross.CacheHitPct), max(ten.CacheHitPct, hotCross.CacheHitPct)), v.err()
	})},
	{id: "merge-isolation", entry: "ext-merge", paper: "no master reachable from a non-consenting tenant", eval: on(func(rows []MergeDomainsRow) (string, error) {
		var v violations
		for _, r := range rows {
			v.check(r.IsolationOK, "isolation/fairness invariants violated in %s/%.2f", r.Scope, r.WriteRatio)
		}
		return fmt.Sprintf("holds in all %d cells", len(rows)), v.err()
	})},

	// ext-resilience.
	{id: "resilience-monotone", entry: "ext-resilience", paper: "§7/§10: the platform must survive the pool's failure domain", eval: on(func(rows []ResilienceRow) (string, error) {
		var v violations
		for i := 1; i < len(rows); i++ {
			prev, cur := rows[i-1], rows[i]
			v.check(cur.UnhealthyPct >= prev.UnhealthyPct, "unhealthy%% not monotone: %.2f%% at %.2f, %.2f%% at %.2f", prev.UnhealthyPct, prev.Intensity, cur.UnhealthyPct, cur.Intensity)
			v.check(cur.ColdStartRatio >= prev.ColdStartRatio, "cold-start ratio not monotone: %.4f at %.2f, %.4f at %.2f", prev.ColdStartRatio, prev.Intensity, cur.ColdStartRatio, cur.Intensity)
			v.check(cur.P99Sec >= prev.P99Sec, "P99 not monotone: %.3fs at %.2f, %.3fs at %.2f", prev.P99Sec, prev.Intensity, cur.P99Sec, cur.Intensity)
		}
		first, last := rows[0], rows[len(rows)-1]
		return fmt.Sprintf("cold-start ratio %.1f%%→%.1f%% and P99 %.1f s→%.1f s",
			100*first.ColdStartRatio, 100*last.ColdStartRatio, first.P99Sec, last.P99Sec), v.err()
	})},
	{id: "resilience-conservation", entry: "ext-resilience", paper: "§7/§10: the platform must survive the pool's failure domain", eval: on(func(rows []ResilienceRow) (string, error) {
		var v violations
		for _, r := range rows {
			got := r.Completed + r.Rescheduled + r.Failed
			v.check(got == r.Submitted, "intensity %.2f: completed %d + rescheduled %d + failed %d = %d, want submitted %d",
				r.Intensity, r.Completed, r.Rescheduled, r.Failed, got, r.Submitted)
		}
		return fmt.Sprintf("all %d requests conserved on every row", rows[0].Submitted), v.err()
	})},
	{id: "resilience-recovery", entry: "ext-resilience", paper: "§7/§10: the platform must survive the pool's failure domain", eval: on(func(rows []ResilienceRow) (string, error) {
		base, last := rows[0], rows[len(rows)-1]
		var v violations
		v.check(base.FetchRetries == 0 && base.FetchTimeouts == 0 && base.ColdReinits == 0 && base.Rescheduled == 0 && base.Failed == 0,
			"fault-free baseline shows recovery activity: %+v", base)
		v.check(last.FetchRetries > 0, "full-intensity row exercised no retries: %+v", last)
		return fmt.Sprintf("no recovery activity at intensity 0, %d fetch retries at intensity %.0f", last.FetchRetries, last.Intensity), v.err()
	})},

	// ext-observe.
	{id: "observe-quiet", entry: "ext-observe", paper: "incidents localized without perturbing the run", eval: on(func(cells []ObserveCell) (string, error) {
		base := cells[0]
		var activity, reqs int64
		for _, w := range base.Windows {
			activity += w.Retries + w.Timeouts + w.FallbackPages + w.Reinits + w.FaultKinds
			reqs += w.Requests
		}
		var v violations
		v.check(base.Dumps == 0, "fault-free baseline took %d flight dumps, want 0", base.Dumps)
		v.check(activity == 0, "fault-free baseline shows recovery activity %d, want 0", activity)
		v.check(reqs > 0, "fault-free baseline rolled up no requests; workload not sampled")
		return fmt.Sprintf("intensity 0 shows zero recovery activity and %d flight dumps over %d requests", base.Dumps, reqs), v.err()
	})},
	{id: "observe-faulted", entry: "ext-observe", paper: "incidents localized without perturbing the run", eval: on(func(cells []ObserveCell) (string, error) {
		faulted := cells[len(cells)-1]
		var activity int64
		kindWindows := 0
		for _, w := range faulted.Windows {
			activity += w.Retries + w.Timeouts + w.FallbackPages
			if w.FaultKinds > 0 {
				kindWindows++
			}
		}
		var v violations
		v.check(faulted.FaultWindows > 0, "faulted cell has no fault windows; plan not generated")
		v.check(faulted.Dumps > 0, "faulted cell took no flight dumps; fault triggers not armed")
		v.check(faulted.DumpEvents > 0, "flight dumps carry no events; recorder ring not populated")
		v.check(activity > 0, "faulted cell shows no retry/timeout/fallback activity in any window")
		v.check(kindWindows > 0, "no window observed an active fault kind; pool gauge not sampled")
		return fmt.Sprintf("intensity %.0f arms %d fault windows and takes %d dumps (~%.0f k events)",
			faulted.Intensity, faulted.FaultWindows, faulted.Dumps, float64(faulted.DumpEvents)/1000), v.err()
	})},
	// Recovery activity concentrates in windows where a fault kind was
	// active, or the window right after (recovery echo), rather than being
	// uniform background noise.
	{id: "observe-comovement", entry: "ext-observe", paper: "incidents localized without perturbing the run", eval: on(func(cells []ObserveCell) (string, error) {
		faulted := cells[len(cells)-1]
		var near, total int64
		for i, w := range faulted.Windows {
			act := w.Retries + w.Timeouts + w.FallbackPages
			total += act
			if w.FaultKinds > 0 || (i > 0 && faulted.Windows[i-1].FaultKinds > 0) {
				near += act
			}
		}
		var v violations
		v.check(near > 0, "recovery activity never lands in or next to a fault window")
		return fmt.Sprintf("%.1f%% of the retry, timeout and fallback activity lands in or right after a fault window",
			100*float64(near)/float64(total)), v.err()
	})},

	// ext-drilldown.
	{id: "drilldown-attribution", entry: "ext-drilldown", paper: "a spike window should explain itself", eval: on(func(cells []DrilldownCell) (string, error) {
		var v violations
		var parts []string
		for _, c := range cells {
			v.check(c.ExemplarCells > 0, "intensity %.2f: no exemplar cells retained", c.Intensity)
			v.check(c.Explanation != nil, "intensity %.2f: no explanation", c.Intensity)
			v.check(c.WorstFunction != "" && c.WorstLatencyMs > 0, "intensity %.2f: no worst exemplar resolved (%q, %.2fms)", c.Intensity, c.WorstFunction, c.WorstLatencyMs)
			v.check(c.DominantPhase != "", "intensity %.2f: worst exemplar has no dominant phase", c.Intensity)
			parts = append(parts, fmt.Sprintf("intensity %.0f: t=%.0f s, worst request a %s %s at %.1f s, %s-dominant",
				c.Intensity, c.SpikeStartSec, c.WorstKind, c.WorstFunction, c.WorstLatencyMs/1000, c.DominantPhase))
		}
		return strings.Join(parts, "; "), v.err()
	})},
	{id: "drilldown-audit", entry: "ext-drilldown", paper: "byte-flows conserve pool occupancy", eval: on(func(cells []DrilldownCell) (string, error) {
		var v violations
		var checks []string
		for _, c := range cells {
			v.check(c.AuditOK, "intensity %.2f: flow conservation violated", c.Intensity)
			v.check(c.AuditChecks > 0, "intensity %.2f: no occupancy checkpoints audited", c.Intensity)
			v.check(c.FlowRows > 0, "intensity %.2f: flow ledger empty", c.Intensity)
			checks = append(checks, fmt.Sprint(c.AuditChecks))
		}
		return "OK over " + strings.Join(checks, " / ") + " checkpoints", v.err()
	})},

	// ext-stateful.
	{id: "stateful-latency", entry: "ext-stateful", paper: "§9/§10: pass state through shared regions instead of re-initializing", eval: on(func(rows []StatefulRow) (string, error) {
		var v violations
		var parts []string
		for _, wf := range []string{"pipeline", "fanout", "mapreduce", "mlpipeline", "websession"} {
			pool, reinit := statefulAt(rows, wf, "pool"), statefulAt(rows, wf, "reinit")
			v.check(pool.MeanRunSec < reinit.MeanRunSec, "%s: pool mean %.3fs >= reinit mean %.3fs", wf, pool.MeanRunSec, reinit.MeanRunSec)
			v.check(pool.P99RunSec < reinit.P99RunSec, "%s: pool P99 %.3fs >= reinit P99 %.3fs", wf, pool.P99RunSec, reinit.P99RunSec)
			parts = append(parts, fmt.Sprintf("%s %.3f s vs %.3f s", wf, pool.MeanRunSec, reinit.MeanRunSec))
		}
		return strings.Join(parts, ", "), v.err()
	})},
	{id: "stateful-paths", entry: "ext-stateful", paper: "§9/§10: pass state through shared regions instead of re-initializing", eval: on(func(rows []StatefulRow) (string, error) {
		var v violations
		for _, r := range rows {
			v.check(r.Runs > 0 && r.Completed == r.Runs, "%s/%s: %d of %d runs completed", r.Workflow, r.Mode, r.Completed, r.Runs)
			v.check(r.AuditOK, "%s/%s: flow ledger conservation violated", r.Workflow, r.Mode)
			v.check(r.Drained, "%s/%s: shared regions not drained", r.Workflow, r.Mode)
			switch r.Mode {
			case "pool":
				v.check(r.Regions > 0 && r.RegionMaps > 0 && r.ShareReadMB > 0, "pool row took no region path: %+v", r)
			case "reinit":
				v.check(r.Regions == 0 && r.ShareReadMB == 0 && r.Reinits > 0, "reinit row touched the pool state path: %+v", r)
			}
		}
		return fmt.Sprintf("all %d cells complete, audit OK and drain", len(rows)), v.err()
	})},
	{id: "stateful-cow", entry: "ext-stateful", paper: "§9/§10: pass state through shared regions instead of re-initializing", eval: on(func(rows []StatefulRow) (string, error) {
		ws := statefulAt(rows, "websession", "pool")
		var v violations
		v.check(ws.CowBreaks > 0, "websession pool row shows no CoW breaks: %+v", ws)
		return fmt.Sprintf("%d copy-on-write breaks", ws.CowBreaks), v.err()
	})},
}

// TestPaperClaims checks every claim on the seed-42 rows of the shared
// registry run. A claim marked deviates must keep failing, so the mark and
// EXPERIMENTS.md's deviation note cannot outlive the deviation.
func TestPaperClaims(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			if seen[c.id] {
				t.Fatal("duplicate claim id")
			}
			seen[c.id] = true
			rows, ok := registryRun(42).rows[c.entry]
			if !ok {
				t.Fatalf("no deterministic registry entry %q", c.entry)
			}
			value, verdict := c.eval(rows)
			switch {
			case verdict != nil && !c.deviates:
				t.Errorf("%s: measured %s (paper: %s): %v", c.entry, value, c.paper, verdict)
			case verdict == nil && c.deviates:
				t.Errorf("%s: measured %s now holds (paper: %s); drop the deviation mark here and in EXPERIMENTS.md", c.entry, value, c.paper)
			}
		})
	}
}

// claimMarker matches one marked EXPERIMENTS.md cell: the claim id, then the
// cell's quoted value.
var claimMarker = regexp.MustCompile(`<!--claim:([a-z0-9-]+)-->(.*?)<!--/claim-->`)

// TestExperimentsMDClaims diffs every marked cell of EXPERIMENTS.md against
// its claim's seed-42 value; each claim must be marked exactly once. Run
// with -update to rewrite the marked cells.
func TestExperimentsMDClaims(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	for _, c := range claims {
		value, _ := c.eval(registryRun(42).rows[c.entry])
		if strings.ContainsAny(value, "|<>") {
			t.Errorf("%s: value %q would break its table cell", c.id, value)
		}
		values[c.id] = value
	}
	marked := map[string]int{}
	got := claimMarker.ReplaceAllStringFunc(string(doc), func(m string) string {
		sub := claimMarker.FindStringSubmatch(m)
		id, quoted := sub[1], sub[2]
		marked[id]++
		value, ok := values[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md marks unknown claim %q", id)
			return m
		}
		if quoted != value && !*updateGolden {
			t.Errorf("EXPERIMENTS.md cell %s quotes %q, seed 42 measures %q (run with -update)", id, quoted, value)
		}
		return "<!--claim:" + id + "-->" + value + "<!--/claim-->"
	})
	for _, c := range claims {
		if marked[c.id] != 1 {
			t.Errorf("claim %s is marked %d times in EXPERIMENTS.md, want once", c.id, marked[c.id])
		}
	}
	if *updateGolden && !bytes.Equal([]byte(got), doc) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig13ClaimsCatchAblation is the claims' mutation check: putting the
// w/o-Pucket or the w/o-Semi-warm row in the FaaSMem row's place, in either
// case, must fail at least one Fig 13 claim, so the claims tell the full
// design apart from each ablation.
func TestFig13ClaimsCatchAblation(t *testing.T) {
	rows := sharedRows[Fig13Row](t, "fig13")
	for _, ablation := range []PolicyKind{FaaSMemNoPucket, FaaSMemNoSemi} {
		for _, cs := range []string{"common", "bursty"} {
			mutated := slices.Clone(rows)
			for i, r := range mutated {
				if r.Case == cs && r.Variant == FaaSMem {
					mutated[i] = fig13At(rows, cs, ablation)
					mutated[i].Variant = FaaSMem
				}
			}
			var failed []string
			for _, c := range claims {
				if c.entry != "fig13" {
					continue
				}
				if _, verdict := c.eval(mutated); verdict != nil {
					failed = append(failed, c.id)
				}
			}
			if len(failed) == 0 {
				t.Errorf("%s: the %s row in FaaSMem's place fails no Fig 13 claim", cs, ablation)
			}
		}
	}
}
