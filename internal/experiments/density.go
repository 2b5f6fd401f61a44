package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// Fig16Row is one trace's bandwidth and density outcome for one application.
type Fig16Row struct {
	App     string `col:"app"`
	TraceID int    `col:"trace"`
	// ReqPerMinute is the trace's average request rate.
	ReqPerMinute float64 `col:"req/min,%.1f"`
	// IntervalSigmaSec is the standard deviation of request intervals.
	IntervalSigmaSec float64 `col:"interval sigma,%.1fs"`
	// BandwidthMBps is the average remote (offload) bandwidth consumed.
	BandwidthMBps float64 `col:"offload BW,%.2f MB/s"`
	// Density is the estimated deployment-density improvement: original
	// quota divided by the quota reduced by the average offloaded amount
	// per container (§8.6).
	Density float64 `col:"density,%.2fx"`
}

// Fig16Options sizes the production-density study.
type Fig16Options struct {
	// Traces is the number of random traces per application. Paper: 20.
	// Default 20.
	Traces int
	// Duration per trace. Default 30 m.
	Duration time.Duration
	Seed     int64
	// Apps restricts the applications (nil = bert, graph, web).
	Apps []string
}

// Fig16 reproduces Figure 16: remote bandwidth consumption and estimated
// deployment-density improvement across diverse traces for Bert, Graph and
// Web (quotas 1280/256/384 MB). The paper finds bandwidth growing roughly
// linearly with load, density positively correlated with request rate (up to
// 1.4×/1.4×/2.2×) and negatively with the σ of request intervals.
func Fig16(opt Fig16Options) []Fig16Row {
	if opt.Traces <= 0 {
		opt.Traces = 20
	}
	if opt.Duration <= 0 {
		opt.Duration = 30 * time.Minute
	}
	apps := opt.Apps
	if len(apps) == 0 {
		apps = []string{"bert", "graph", "web"}
	}
	type cell struct {
		app  string
		prof *workload.Profile
		id   int
		fn   *trace.Function
	}
	var cells []cell
	var scs []Scenario
	for _, app := range apps {
		prof := workload.ByName(app)
		for id := 0; id < opt.Traces; id++ {
			seed := opt.Seed + int64(id)*7919
			// Vary load and burstiness across traces to cover the scatter.
			gap := time.Duration(2+id*4) * time.Second
			bursty := id%3 == 0
			fn := trace.GenerateFunction(app, opt.Duration, gap, bursty, seed)
			if len(fn.Invocations) < 2 {
				continue
			}
			cells = append(cells, cell{app: app, prof: prof, id: id, fn: fn})
			scs = append(scs, Scenario{
				Profile:     prof,
				Invocations: fn.Invocations,
				Duration:    opt.Duration,
				Policy:      FaaSMem,
				SeedHistory: true,
				Seed:        seed,
			})
		}
	}
	outs := RunScenarios(scs)

	var rows []Fig16Row
	for i, c := range cells {
		out := outs[i]
		// Density accounting (§8.6): the average offloaded amount per
		// live container reduces the schedulable quota.
		quotaMB := float64(c.prof.QuotaBytes) / 1e6
		offloadPerContainerMB := 0.0
		if out.LiveAvg > 0 {
			offloadPerContainerMB = out.AvgRemoteMB / out.LiveAvg
		}
		newQuota := quotaMB - offloadPerContainerMB
		density := 1.0
		if newQuota > 0 {
			density = quotaMB / newQuota
		}
		st := c.fn.Intervals()
		rows = append(rows, Fig16Row{
			App:              c.app,
			TraceID:          c.id + 1,
			ReqPerMinute:     c.fn.RequestsPerMinute(opt.Duration),
			IntervalSigmaSec: st.Stddev.Seconds(),
			BandwidthMBps:    out.OffloadBWMBps,
			Density:          density,
		})
	}
	return rows
}

// plotFig16 draws each application's density against its request rate as an
// ASCII plot.
func plotFig16(w io.Writer, rows []Fig16Row) {
	byApp := map[string][]report.Point{}
	var order []string
	for _, r := range rows {
		if _, seen := byApp[r.App]; !seen {
			order = append(order, r.App)
		}
		byApp[r.App] = append(byApp[r.App], report.Point{X: r.ReqPerMinute, Y: r.Density})
	}
	for _, app := range order {
		fmt.Fprintf(w, "  %s: density vs req/min:\n", app)
		fmt.Fprint(w, report.Plot(byApp[app], 44, 6))
	}
}
