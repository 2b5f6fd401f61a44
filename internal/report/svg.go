package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file renders experiment series as standalone SVG charts — the
// repository's counterpart of the artifact's draw*.py scripts that emit PDF
// graphs. Charts are deliberately minimal (axes, ticks, series, legend) and
// depend only on the standard library.

// Series is one named line/scatter series.
type Series struct {
	Name   string
	Points []Point
	// Scatter draws markers only (no connecting line).
	Scatter bool
}

// ChartOptions labels an SVG chart. Every chart is 640×400 pixels.
type ChartOptions struct {
	Title  string
	XLabel string
	YLabel string
	// LogX plots the x axis on a log10 scale (keep-alive sweeps).
	LogX bool
	// YMin forces the y-axis floor (e.g. 0 for memory); NaN = auto.
	YMin float64
}

var seriesColors = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// SVGChart renders the series as a complete SVG document.
func SVGChart(opt ChartOptions, series ...Series) string {
	const w, h = 640, 400
	const marginL, marginR, marginT, marginB = 64, 16, 36, 48
	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)

	// Data extent.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range series {
		for _, p := range s.Points {
			x := p.X
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
			n++
		}
	}
	if n == 0 {
		return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d"><text x="10" y="20">no data</text></svg>`, w, h)
	}
	if !math.IsNaN(opt.YMin) && opt.YMin < minY {
		minY = opt.YMin
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	// 5% headroom on Y.
	pad := (maxY - minY) * 0.05
	maxY += pad

	toX := func(x float64) float64 {
		if opt.LogX {
			x = math.Log10(x)
		}
		return float64(marginL) + (x-minX)/(maxX-minX)*plotW
	}
	toY := func(y float64) float64 {
		return float64(marginT) + (1-(y-minY)/(maxY-minY))*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n", w/2, escape(opt.Title))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginL, marginT, marginL, h-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", marginL, h-marginB, w-marginR, h-marginB)
	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		fy := minY + (maxY-minY)*float64(i)/4
		y := toY(fy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", marginL, y, w-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`+"\n", marginL-6, y+4, fmtTick(fy))
		fx := minX + (maxX-minX)*float64(i)/4
		xv := fx
		if opt.LogX {
			xv = math.Pow(10, fx)
		}
		x := float64(marginL) + (fx-minX)/(maxX-minX)*plotW
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n", x, h-marginB+18, fmtTick(xv))
	}
	if opt.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`+"\n", marginL+int(plotW)/2, h-10, escape(opt.XLabel))
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n", marginT+int(plotH)/2, marginT+int(plotH)/2, escape(opt.YLabel))
	}
	// Series.
	for si, s := range series {
		color := seriesColors[si%len(seriesColors)]
		pts := append([]Point(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		if !s.Scatter && len(pts) > 1 {
			var path strings.Builder
			for i, p := range pts {
				if opt.LogX && p.X <= 0 {
					continue
				}
				cmd := "L"
				if i == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, toX(p.X), toY(p.Y))
			}
			fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n", strings.TrimSpace(path.String()), color)
		}
		for _, p := range pts {
			if opt.LogX && p.X <= 0 {
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", toX(p.X), toY(p.Y), color)
		}
		// Legend entry.
		if s.Name != "" {
			lx, ly := w-marginR-150, marginT+14+si*18
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, ly-9, color)
			fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+14, ly, escape(s.Name))
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 10000 || (av < 0.01 && av > 0):
		return fmt.Sprintf("%.1e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
