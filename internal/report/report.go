// Package report renders experiment results for humans: ASCII plots that
// give the figures' *shape* directly in a terminal — timelines (Fig. 13),
// CDFs (Fig. 14), and scatter trends (Fig. 16) — and SVG charts.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Stat formats a statistic with the given printf verb, rendering "n/a" when
// ok is false, so an empty sampler (metrics.Sampler.Empty) prints as "n/a"
// rather than a misleading 0.
func Stat(format string, v float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Plot renders points as an ASCII chart of the given size. Points are
// plotted with '*' on a dotted canvas; axis extremes are labeled. It returns
// "" for empty input or degenerate sizes.
func Plot(points []Point, width, height int) string {
	if len(points) == 0 || width < 8 || height < 2 {
		return ""
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range points {
		x := int(math.Round((p.X - minX) / (maxX - minX) * float64(width-1)))
		y := int(math.Round((p.Y - minY) / (maxY - minY) * float64(height-1)))
		row := height - 1 - y
		grid[row][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.3g ┤%s\n", maxY, string(grid[0]))
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(&b, "%10s ┤%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(&b, "%10.3g ┤%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(&b, "%10s  %-*.3g%*.3g\n", "", width/2, minX, width-width/2, maxX)
	return b.String()
}

// CDF renders an empirical CDF (fractions in [0,1]) as an ASCII chart.
func CDF(values []float64, fractions []float64, width, height int) string {
	if len(values) != len(fractions) {
		return ""
	}
	pts := make([]Point, len(values))
	for i := range values {
		pts[i] = Point{X: values[i], Y: fractions[i]}
	}
	return Plot(pts, width, height)
}
