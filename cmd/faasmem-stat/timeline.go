package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// timelineMain is the `faasmem-stat timeline` subcommand: run one scenario
// with a time-series recorder attached and render the per-window rollups —
// the single-node sibling of the ext-observe sweep, sharing its renderers
// with the gateway's GET /timeline.
func timelineMain(argv []string) {
	fs := flag.NewFlagSet("faasmem-stat timeline", flag.ExitOnError)
	spec := cliSpec()
	spec.Flags(fs)
	quick := fs.Bool("quick", false, "CI-sized run: 5-minute duration, 5s gap (overrides -duration/-gap)")
	window := fs.Duration("window", 10*time.Second, "rollup window (virtual time)")
	fs.Float64Var(&spec.FaultIntensity, "fault-intensity", 0, "fault-plan intensity in [0, 1]; 0 runs fault-free")
	fs.Int64Var(&spec.FaultSeed, "fault-seed", 0, "fault-schedule seed (default: -seed)")
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
	spec = liveSpec(spec, *quick)

	var exm *exemplar.Recorder
	if *exemplars {
		exm = exemplar.NewRecorder(exemplar.Config{Window: *window, K: *exemplarK})
	}
	rec := runTimelineScenario(spec, *window, exm)

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

// runTimelineScenario runs a normalized spec with a time-series recorder
// (and exm, when non-nil) attached and returns the populated recorder.
func runTimelineScenario(spec experiments.Spec, window time.Duration, exm *exemplar.Recorder) *timeseries.Recorder {
	rec := timeseries.NewRecorder(timeseries.Config{Window: window})
	experiments.RunScenario(spec.Scenario(telemetry.Hub{Timeline: rec, Exemplars: exm}))
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
