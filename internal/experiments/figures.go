package experiments

import (
	"github.com/faasmem/faasmem/internal/report"
)

// This file turns experiment rows into SVG charts — the repository's
// counterpart of the artifact's draw*.py scripts. cmd/experiments -svg
// writes them next to the JSON row dumps.

// SVGFig1 renders the keep-alive trade-off curve.
func SVGFig1(rows []Fig1Row) string {
	inactive := report.Series{Name: "inactive time (%)"}
	cold := report.Series{Name: "cold-start ratio (%)"}
	for _, r := range rows {
		inactive.Points = append(inactive.Points, report.Point{X: r.Timeout.Seconds(), Y: r.InactiveFraction * 100})
		cold.Points = append(cold.Points, report.Point{X: r.Timeout.Seconds(), Y: r.ColdStartRatio * 100})
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 1: keep-alive timeout trade-off",
		XLabel: "keep-alive timeout (s, log)",
		YLabel: "percent",
		LogX:   true,
		YMin:   0,
	}, inactive, cold)
}

// SVGFig2 renders the DAMON slowdown per benchmark (index on x).
func SVGFig2(rows []Fig2Row) string {
	base := report.Series{Name: "no-offload P95 (s)", Scatter: true}
	damon := report.Series{Name: "DAMON P95 (s)", Scatter: true}
	for i, r := range rows {
		base.Points = append(base.Points, report.Point{X: float64(i), Y: r.BaseP95})
		damon.Points = append(damon.Points, report.Point{X: float64(i), Y: r.DamonP95})
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 2: P95 latency under DAMON (benchmark index)",
		XLabel: "benchmark (0=bert … 10=json)",
		YLabel: "P95 latency (s)",
		YMin:   0,
	}, base, damon)
}

// SVGFig5 renders the requests-per-container CDF.
func SVGFig5(rows []Fig5Row) string {
	s := report.Series{Name: "containers"}
	for _, r := range rows {
		s.Points = append(s.Points, report.Point{X: float64(r.Requests), Y: r.CumFrac})
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 5: CDF of requests per container",
		XLabel: "requests handled",
		YLabel: "cumulative fraction",
		LogX:   true,
		YMin:   0,
	}, s)
}

// SVGFig13 renders the common-case memory timelines of the ablation.
func SVGFig13(rows []Fig13Row) string {
	var series []report.Series
	for _, r := range rows {
		if r.Timeline == nil || r.Timeline.Len() == 0 {
			continue
		}
		s := report.Series{Name: string(r.Variant)}
		for i := range r.Timeline.Times {
			s.Points = append(s.Points, report.Point{X: r.Timeline.Times[i].Seconds(), Y: r.Timeline.Values[i]})
		}
		series = append(series, s)
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 13: Bert memory timeline (common case)",
		XLabel: "time (s)",
		YLabel: "node-local memory (MB)",
		YMin:   0,
	}, series...)
}

// SVGFig14 renders the per-class semi-warm share CDFs.
func SVGFig14(rows []Fig14Class) string {
	var series []report.Series
	for _, r := range rows {
		s := report.Series{Name: r.Class.String() + " load"}
		for _, pt := range r.ShareCDF {
			s.Points = append(s.Points, report.Point{X: pt.Value, Y: pt.Fraction})
		}
		if len(s.Points) > 0 {
			series = append(series, s)
		}
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 14: semi-warm time / container lifetime (CDF)",
		XLabel: "semi-warm share of lifetime",
		YLabel: "cumulative fraction",
		YMin:   0,
	}, series...)
}

// SVGFig16 renders the density-vs-load scatter per application.
func SVGFig16(rows []Fig16Row) string {
	byApp := map[string]*report.Series{}
	order := []string{}
	for _, r := range rows {
		s, ok := byApp[r.App]
		if !ok {
			s = &report.Series{Name: r.App, Scatter: true}
			byApp[r.App] = s
			order = append(order, r.App)
		}
		s.Points = append(s.Points, report.Point{X: r.ReqPerMinute, Y: r.Density})
	}
	series := make([]report.Series, 0, len(order))
	for _, app := range order {
		series = append(series, *byApp[app])
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Figure 16: density improvement vs request load",
		XLabel: "requests per minute",
		YLabel: "density improvement (x)",
		YMin:   1,
	}, series...)
}

// SVGReadahead renders the §10 prefetching extension.
func SVGReadahead(rows []ReadaheadRow) string {
	p99 := report.Series{Name: "P99 (s)"}
	for _, r := range rows {
		p99.Points = append(p99.Points, report.Point{X: float64(r.Window), Y: r.P99})
	}
	return report.SVGChart(report.ChartOptions{
		Title:  "Extension: swap readahead vs recall tail",
		XLabel: "readahead window (pages)",
		YLabel: "P99 latency (s)",
		YMin:   0,
	}, p99)
}
