package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/faasmem/faasmem/internal/report"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// ---------------------------------------------------------------- Figure 1

// Fig1Options configures the keep-alive sweep.
type Fig1Options struct {
	// Trace overrides the synthetic trace (nil = generate default).
	Trace *trace.Trace
	// Seed for trace generation and duration sampling.
	Seed int64
}

// Fig1Row is one point of Figure 1: memory-inactive time and cold-start
// ratio at one keep-alive timeout.
type Fig1Row struct {
	Timeout          time.Duration `col:"keep-alive"`
	InactiveFraction float64       `col:"inactive-time,%.1f%%,pct"`
	ColdStartRatio   float64       `col:"cold-start,%.1f%%,pct"`
}

// Fig1 reproduces Figure 1: sweeping the keep-alive timeout over an
// Azure-like trace trades cold starts against idle memory (paper: 89.2%
// inactive at 10 min, 70.1% at 1 min).
func Fig1(opt Fig1Options) []Fig1Row {
	tr := opt.Trace
	if tr == nil {
		tr = trace.Generate(trace.GenConfig{}, opt.Seed)
	}
	// The swept timeouts: 10 s … 1000 s, log-spaced.
	var timeouts []time.Duration
	for _, s := range []int{10, 20, 40, 60, 100, 200, 400, 600, 1000} {
		timeouts = append(timeouts, time.Duration(s)*time.Second)
	}
	// Per-function heavy-tailed execution durations (log-normal, median
	// 1 s, capped at 60 s), matching the Azure trace's duration spread:
	// with one fixed execution time the inactive-time curve saturates at
	// short timeouts.
	durations := make([]time.Duration, len(tr.Functions))
	rng := lazyrand.New(opt.Seed + 1)
	for i := range durations {
		d := time.Duration(math.Exp(rng.NormFloat64()*1.5) * float64(time.Second))
		if d > time.Minute {
			d = time.Minute
		}
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		durations[i] = d
	}
	// Each timeout's sweep reads only the shared trace and duration table,
	// so the points fan out across the scenario worker pool.
	rows := make([]Fig1Row, len(timeouts))
	runGrid(len(timeouts), func(ti int) {
		res := trace.SimulateTraceKeepAliveScalarsFunc(tr, func(i int, _ *trace.Function) time.Duration {
			return durations[i]
		}, timeouts[ti])
		rows[ti] = Fig1Row{
			Timeout:          timeouts[ti],
			InactiveFraction: res.InactiveFraction(),
			ColdStartRatio:   res.ColdStartRatio(),
		}
	})
	return rows
}

// plotFig1 draws the inactive-time series as an ASCII plot.
func plotFig1(w io.Writer, rows []Fig1Row) {
	pts := make([]report.Point, len(rows))
	for i, r := range rows {
		pts[i] = report.Point{X: r.Timeout.Seconds(), Y: r.InactiveFraction * 100}
	}
	fmt.Fprintln(w, "  inactive time (%) vs keep-alive timeout (s):")
	fmt.Fprint(w, report.Plot(pts, 48, 8))
}

// ---------------------------------------------------------------- Figure 5

// Fig5Options configures the requests-per-container CDF.
type Fig5Options struct {
	Trace *trace.Trace
	Seed  int64
}

// Fig5Row is one step of the Figure 5 CDF.
type Fig5Row struct {
	Requests int
	CumFrac  float64
}

// Fig5 reproduces Figure 5: the CDF of requests handled per container under
// a 10-minute keep-alive (paper: ~60% of containers handle ≤ 2 requests).
func Fig5(opt Fig5Options) []Fig5Row {
	tr := opt.Trace
	if tr == nil {
		tr = trace.Generate(trace.GenConfig{}, opt.Seed)
	}
	// Every invocation runs 500 ms under the paper's 10-minute keep-alive.
	res := trace.SimulateTraceKeepAlive(tr, 500*time.Millisecond, 10*time.Minute)
	counts := append([]int(nil), res.RequestsPerContainer...)
	sort.Ints(counts)
	var rows []Fig5Row
	n := float64(len(counts))
	for i := 0; i < len(counts); i++ {
		if i+1 < len(counts) && counts[i+1] == counts[i] {
			continue
		}
		rows = append(rows, Fig5Row{Requests: counts[i], CumFrac: float64(i+1) / n})
	}
	return rows
}

// Fig5AtMost returns the cumulative fraction of containers handling at most
// k requests.
func Fig5AtMost(rows []Fig5Row, k int) float64 {
	frac := 0.0
	for _, r := range rows {
		if r.Requests <= k {
			frac = r.CumFrac
		}
	}
	return frac
}

// PrintFig5 renders key points of the Figure 5 CDF.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: CDF of requests handled per container (10-minute keep-alive)")
	table := [][]string{}
	for _, k := range []int{1, 2, 5, 10, 25} {
		table = append(table, []string{
			fmt.Sprintf("<= %d", k),
			fmt.Sprintf("%.1f%%", Fig5AtMost(rows, k)*100),
		})
	}
	writeTable(w, []string{"requests", "containers"}, table)
}

// ---------------------------------------------------------------- Figure 14

// Fig14Options configures the semi-warm applicability study.
type Fig14Options struct {
	// NumFunctions / Duration size the generated trace. Defaults 424 / 6 h.
	NumFunctions int
	Duration     time.Duration
	Seed         int64
}

// Fig14Class aggregates one load class's distributions.
type Fig14Class struct {
	Class trace.LoadClass
	// ShareCDF is the CDF of semi-warm time / container lifetime.
	ShareCDF []metrics.CDFPoint
	// LifetimeCDF is the CDF of container lifetimes (seconds).
	LifetimeCDF []metrics.CDFPoint
	// MedianShare is the median semi-warm share.
	MedianShare float64
	Containers  int
}

// Fig14 reproduces Figure 14: across high/medium/low-load functions, the
// fraction of container lifetime spent in the semi-warm period and the
// container lifetime distribution. The paper finds semi-warm covers more
// than half the lifetime for ~50% of functions, helping high- and low-load
// functions most.
//
// The study runs the real platform with FaaSMem over hello-world-sized
// profiles: semi-warm timing depends only on invocation dynamics, not on
// footprint, so small profiles keep a 424-function run cheap.
func Fig14(opt Fig14Options) []Fig14Class {
	cfg := trace.GenConfig{NumFunctions: opt.NumFunctions, Duration: opt.Duration}
	if cfg.Duration == 0 {
		cfg.Duration = 6 * time.Hour
	}
	tr := trace.Generate(cfg, opt.Seed)
	const keepAlive = 10 * time.Minute

	fm := core.New(core.Config{})
	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{KeepAliveTimeout: keepAlive, Seed: opt.Seed}, fm)

	classOf := make(map[string]trace.LoadClass, len(tr.Functions))
	prof := workload.HelloWorld(workload.OpenWhisk, workload.Python)
	for _, tf := range tr.Functions {
		classOf[tf.ID] = tf.Class(tr.Duration)
		fp := *prof
		fp.Name = tf.ID
		p.Register(tf.ID, &fp)
		p.ScheduleInvocations(tf.ID, tf.Invocations)
		// Provider-side profiling: seed semi-warm timing from the trace.
		ka := trace.SimulateKeepAlive(tf.Invocations, fp.ExecTime, keepAlive)
		fm.SeedReuseIntervals(tf.ID, ka.ReusedIntervals)
	}
	e.RunUntil(tr.Duration + keepAlive)

	bins := map[trace.LoadClass]*struct{ share, life metrics.Sampler }{
		trace.LowLoad:    {},
		trace.MediumLoad: {},
		trace.HighLoad:   {},
	}
	for _, cs := range fm.Stats().Containers {
		b := bins[classOf[cs.FunctionID]]
		b.share.Add(cs.SemiWarmShare)
		b.life.Add(cs.Lifetime.Seconds())
	}
	var out []Fig14Class
	for _, cl := range []trace.LoadClass{HighFirst[0], HighFirst[1], HighFirst[2]} {
		b := bins[cl]
		out = append(out, Fig14Class{
			Class:       cl,
			ShareCDF:    b.share.CDF(),
			LifetimeCDF: b.life.CDF(),
			MedianShare: b.share.P50(),
			Containers:  b.share.Count(),
		})
	}
	return out
}

// HighFirst orders load classes high → low for presentation.
var HighFirst = [3]trace.LoadClass{trace.HighLoad, trace.MediumLoad, trace.LowLoad}

// PrintFig14 renders Figure 14's summary.
func PrintFig14(w io.Writer, rows []Fig14Class) {
	fmt.Fprintln(w, "Figure 14: semi-warm time share and container lifetime by load class")
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		lifeP50 := 0.0
		for _, pt := range r.LifetimeCDF {
			if pt.Fraction >= 0.5 {
				lifeP50 = pt.Value
				break
			}
		}
		table = append(table, []string{
			r.Class.String(),
			fmt.Sprintf("%d", r.Containers),
			fmt.Sprintf("%.1f%%", r.MedianShare*100),
			fmt.Sprintf("%.0fs", lifeP50),
		})
	}
	writeTable(w, []string{"class", "containers", "median semi-warm share", "median lifetime"}, table)
	for _, r := range rows {
		if len(r.ShareCDF) == 0 {
			continue
		}
		vals := make([]float64, len(r.ShareCDF))
		fracs := make([]float64, len(r.ShareCDF))
		for i, pt := range r.ShareCDF {
			vals[i] = pt.Value
			fracs[i] = pt.Fraction
		}
		fmt.Fprintf(w, "  %v-load semi-warm share CDF:\n", r.Class)
		fmt.Fprint(w, report.CDF(vals, fracs, 48, 6))
	}
}
