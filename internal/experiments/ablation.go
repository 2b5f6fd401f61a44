package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// Fig13Row is one variant's latency/memory summary under one trace case.
type Fig13Row struct {
	Case    string     `col:"case"` // "common" | "bursty"
	Variant PolicyKind `col:"variant"`
	AvgLat  float64    `col:"avg,%.3fs"`
	P50     float64    `col:"P50,%.3fs"`
	P95     float64    `col:"P95,%.3fs"`
	P99     float64    `col:"P99,%.3fs"`
	// AvgMemMB is the average node-local memory.
	AvgMemMB float64 `col:"avg mem,%.0f MB"`
	// MemVsFaaSMem normalizes memory to the full FaaSMem variant.
	MemVsFaaSMem float64 `col:"vs faasmem,%.2fx"`
	// Timeline samples node-local MB every 10 s (populated for the common
	// case, mirroring Fig. 13a's timeline plot).
	Timeline *metrics.Series
}

// Fig13Options sizes the ablation study.
type Fig13Options struct {
	// Duration of each trace. Paper: 4 h common-case window. Default 1 h.
	Duration time.Duration
	Seed     int64
	// WithTimeline records the memory timeline series for the common case.
	WithTimeline bool
}

// Fig13 reproduces Figure 13: the Bert benchmark under a common high-load
// trace and a bursty one, ablating Pucket and Semi-warm. The paper's
// findings: disabling Pucket raises memory ~19.3% (common case) but lowers
// latency slightly; disabling Semi-warm raises memory ~28.6% and makes the
// footprint parallel the baseline's; under burst, semi-warm recovers most of
// Pucket's benefit at a later time.
func Fig13(opt Fig13Options) []Fig13Row {
	if opt.Duration <= 0 {
		opt.Duration = time.Hour
	}
	prof := workload.Bert()
	variants := []PolicyKind{Baseline, FaaSMem, FaaSMemNoPucket, FaaSMemNoSemi}

	cases := []struct {
		name   string
		bursty bool
		gap    time.Duration
	}{
		{"common", false, 15 * time.Second},
		{"bursty", true, 10 * time.Second},
	}
	var scs []Scenario
	for _, cs := range cases {
		inv := trace.GenerateFunction("bert", opt.Duration, cs.gap, cs.bursty, opt.Seed).Invocations
		for _, v := range variants {
			sc := Scenario{
				Profile:     prof,
				Invocations: inv,
				Duration:    opt.Duration,
				Policy:      v,
				SeedHistory: true,
				Seed:        opt.Seed,
			}
			if opt.WithTimeline && cs.name == "common" {
				sc.MemTimeline = &metrics.Series{}
			}
			scs = append(scs, sc)
		}
	}
	outs := RunScenarios(scs)

	var rows []Fig13Row
	i := 0
	for _, cs := range cases {
		var fmMem float64
		var caseRows []Fig13Row
		for _, v := range variants {
			out := outs[i]
			row := Fig13Row{
				Case:     cs.name,
				Variant:  v,
				AvgLat:   out.AvgLat,
				P50:      out.P50,
				P95:      out.P95,
				P99:      out.P99,
				AvgMemMB: out.AvgLocalMB,
				Timeline: scs[i].MemTimeline,
			}
			i++
			if v == FaaSMem {
				fmMem = out.AvgLocalMB
			}
			caseRows = append(caseRows, row)
		}
		for j := range caseRows {
			if fmMem > 0 {
				caseRows[j].MemVsFaaSMem = caseRows[j].AvgMemMB / fmMem
			}
		}
		rows = append(rows, caseRows...)
	}
	return rows
}

// plotFig13 draws each row's node-local memory timeline as an ASCII plot.
func plotFig13(w io.Writer, rows []Fig13Row) {
	for _, r := range rows {
		if r.Timeline == nil || r.Timeline.Len() == 0 {
			continue
		}
		pts := make([]report.Point, r.Timeline.Len())
		for i := range r.Timeline.Times {
			pts[i] = report.Point{X: r.Timeline.Times[i].Seconds(), Y: r.Timeline.Values[i]}
		}
		fmt.Fprintf(w, "  %s/%s node-local MB over time (s):\n", r.Case, r.Variant)
		fmt.Fprint(w, report.Plot(pts, 56, 7))
	}
}
