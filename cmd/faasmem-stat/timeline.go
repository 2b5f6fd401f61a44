package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// timelineMain is the `faasmem-stat timeline` subcommand: run one scenario
// with a time-series recorder attached and render the per-window rollups —
// the single-node sibling of the ext-observe sweep, sharing its renderers
// with the gateway's GET /timeline.
func timelineMain(argv []string) {
	fs := flag.NewFlagSet("faasmem-stat timeline", flag.ExitOnError)
	bench := fs.String("bench", "web", "benchmark: "+strings.Join(workload.Names(), ", "))
	policyName := fs.String("policy", "faasmem", "offloading policy")
	duration := fs.Duration("duration", 30*time.Minute, "trace duration")
	gap := fs.Duration("gap", 10*time.Second, "mean inter-arrival gap")
	bursty := fs.Bool("bursty", false, "bursty (Markov-modulated) arrivals")
	keepAlive := fs.Duration("keepalive", 10*time.Minute, "keep-alive timeout")
	seed := fs.Int64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "CI-sized run: 5-minute duration, 5s gap (overrides -duration/-gap)")
	window := fs.Duration("window", 10*time.Second, "rollup window (virtual time)")
	faultIntensity := fs.Float64("fault-intensity", 0, "fault-plan intensity in [0, 1]; 0 runs fault-free")
	faultSeed := fs.Int64("fault-seed", 0, "fault-schedule seed (default: -seed)")
	exemplars := fs.Bool("exemplars", false, "retain worst-K span trees per window (JSON output becomes a run file for explain/diff)")
	exemplarK := fs.Int("exemplar-k", exemplar.DefaultK, "worst-K retention depth per (window, node, tenant) cell")
	format := fs.String("format", "text", "output format: text, json, or svg")
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	_ = fs.Parse(argv)

	switch *format {
	case "text", "json", "svg":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json, or svg)\n", *format)
		os.Exit(2)
	}
	prof := workload.ByName(*bench)
	if prof == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; options: %s\n", *bench, strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	kind := experiments.PolicyKind(*policyName)
	if !experiments.ValidPolicy(kind) {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	if *faultIntensity < 0 || *faultIntensity > 1 {
		fmt.Fprintf(os.Stderr, "fault intensity %g out of range [0, 1]\n", *faultIntensity)
		os.Exit(2)
	}
	if *quick {
		*duration = 5 * time.Minute
		*gap = 5 * time.Second
	}
	if *faultSeed == 0 {
		*faultSeed = *seed
	}

	var exm *exemplar.Recorder
	if *exemplars {
		exm = exemplar.NewRecorder(exemplar.Config{Window: *window, K: *exemplarK})
	}
	rec := runTimelineScenario(prof, kind, *duration, *gap, *bursty, *keepAlive,
		*seed, *window, *faultIntensity, *faultSeed, exm)

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	var err error
	switch *format {
	case "text":
		err = timeseries.WriteText(out, rec)
		if err == nil && exm != nil {
			if _, err = fmt.Fprintln(out); err == nil {
				err = drilldown.WriteExemplarsText(out, exm.Cells())
			}
		}
	case "json":
		if exm != nil {
			// Run-file envelope: timeline plus exemplars, the input shape
			// of `faasmem-stat explain` / `faasmem-stat diff`.
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			err = enc.Encode(drilldown.Run{
				Timeline:  timeseries.TakeSnapshot(rec),
				Exemplars: exm.Cells(),
			})
		} else {
			err = timeseries.WriteJSON(out, rec)
		}
	case "svg":
		_, err = io.WriteString(out, timelineSVG(rec))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runTimelineScenario executes one scenario with a time-series recorder
// attached and returns the populated recorder.
func runTimelineScenario(prof *workload.Profile, kind experiments.PolicyKind,
	duration, gap time.Duration, bursty bool, keepAlive time.Duration,
	seed int64, window time.Duration, faultIntensity float64, faultSeed int64,
	exm *exemplar.Recorder) *timeseries.Recorder {
	rec := timeseries.NewRecorder(timeseries.Config{Window: window})
	fn := trace.GenerateFunction(prof.Name, duration, gap, bursty, seed)
	sc := experiments.Scenario{
		Profile:     prof,
		Invocations: fn.Invocations,
		Duration:    duration,
		KeepAlive:   keepAlive,
		Policy:      kind,
		SeedHistory: true,
		Seed:        seed,
		Telemetry:   telemetry.Hub{Timeline: rec, Exemplars: exm},
	}
	if faultIntensity > 0 {
		sc.Pool.Faults = faultinject.New(faultinject.Config{
			Horizon:   duration + keepAlive,
			Intensity: faultIntensity,
			Seed:      faultSeed,
		})
	}
	experiments.RunScenario(sc)
	return rec
}

// timelineSVG charts the per-window memory traffic: node-local and pool
// occupancy plus offload/recall volume per window, X = virtual seconds. The
// flight-dump count rides in the title so a faulted run is recognizable at a
// glance.
func timelineSVG(rec *timeseries.Recorder) string {
	summary := timeseries.Summarize(rec)
	local := report.Series{Name: "node local"}
	pool := report.Series{Name: "pool used"}
	offload := report.Series{Name: "offload/window"}
	recall := report.Series{Name: "recall/window"}
	for _, w := range summary {
		local.Points = append(local.Points, report.Point{X: w.StartSec, Y: w.LocalMB})
		pool.Points = append(pool.Points, report.Point{X: w.StartSec, Y: w.PoolMB})
		offload.Points = append(offload.Points, report.Point{X: w.StartSec, Y: w.OffloadMB})
		recall.Points = append(recall.Points, report.Point{X: w.StartSec, Y: w.RecallMB})
	}
	return report.SVGChart(report.ChartOptions{
		Title:  fmt.Sprintf("Memory timeline (%d windows, %d flight dumps)", len(summary), len(rec.Dumps())),
		XLabel: "virtual seconds",
		YLabel: "MB",
		YMin:   0,
	}, local, pool, offload, recall)
}
