package report

import (
	"strings"
	"testing"
)

func TestPlotBasics(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 4}, {3, 9}}
	out := Plot(pts, 40, 8)
	if out == "" {
		t.Fatal("plot empty")
	}
	if strings.Count(out, "*") < 3 {
		t.Errorf("too few plotted points:\n%s", out)
	}
	if !strings.Contains(out, "9") || !strings.Contains(out, "0") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // height + x-axis labels
		t.Errorf("plot has %d lines, want 9", len(lines))
	}
}

func TestPlotDegenerateInputs(t *testing.T) {
	if Plot(nil, 40, 8) != "" {
		t.Error("nil points should render nothing")
	}
	if Plot([]Point{{1, 1}}, 4, 8) != "" {
		t.Error("too-narrow plot should render nothing")
	}
	// Constant series must not divide by zero.
	out := Plot([]Point{{1, 5}, {2, 5}}, 20, 4)
	if !strings.Contains(out, "*") {
		t.Error("constant series lost its points")
	}
}

func TestCDFHelper(t *testing.T) {
	out := CDF([]float64{1, 2, 3}, []float64{0.3, 0.6, 1.0}, 30, 5)
	if !strings.Contains(out, "*") {
		t.Fatal("CDF plot empty")
	}
	if CDF([]float64{1}, []float64{0.5, 1}, 30, 5) != "" {
		t.Fatal("mismatched lengths should render nothing")
	}
}

func TestSVGChartBasics(t *testing.T) {
	svg := SVGChart(ChartOptions{
		Title:  "Fig 1",
		XLabel: "timeout (s)",
		YLabel: "inactive (%)",
		LogX:   true,
	}, Series{Name: "inactive", Points: []Point{{10, 67}, {100, 89}, {1000, 94}}})
	for _, want := range []string{"<svg", "</svg>", "Fig 1", "timeout (s)", "inactive (%)", "<path", "<circle"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSVGChartScatterHasNoPath(t *testing.T) {
	svg := SVGChart(ChartOptions{}, Series{Name: "pts", Scatter: true, Points: []Point{{1, 1}, {2, 2}}})
	if strings.Contains(svg, "<path") {
		t.Error("scatter series drew a line")
	}
	if strings.Count(svg, "<circle") != 2 {
		t.Error("scatter markers missing")
	}
}

func TestSVGChartEmpty(t *testing.T) {
	svg := SVGChart(ChartOptions{})
	if !strings.Contains(svg, "no data") {
		t.Errorf("empty chart = %q", svg)
	}
}

func TestSVGChartEscapesLabels(t *testing.T) {
	svg := SVGChart(ChartOptions{Title: `a<b&"c"`}, Series{Points: []Point{{1, 1}}})
	if strings.Contains(svg, `a<b`) {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b&amp;") {
		t.Error("escaped title missing")
	}
}

func TestSVGChartMultiSeriesLegend(t *testing.T) {
	svg := SVGChart(ChartOptions{},
		Series{Name: "one", Points: []Point{{1, 1}, {2, 2}}},
		Series{Name: "two", Points: []Point{{1, 2}, {2, 1}}},
	)
	if !strings.Contains(svg, ">one<") || !strings.Contains(svg, ">two<") {
		t.Error("legend entries missing")
	}
	// Distinct colors for distinct series.
	if !strings.Contains(svg, seriesColors[0]) || !strings.Contains(svg, seriesColors[1]) {
		t.Error("series colors missing")
	}
}

func TestStat(t *testing.T) {
	if got := Stat("%.3fs", 1.5, true); got != "1.500s" {
		t.Errorf("Stat ok = %q", got)
	}
	if got := Stat("%.3fs", 0, false); got != "n/a" {
		t.Errorf("Stat !ok = %q, want n/a", got)
	}
}
