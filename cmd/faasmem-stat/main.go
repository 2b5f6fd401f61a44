// Command faasmem-stat answers "where does this scenario's latency come
// from": it ingests causal spans — from a span trace file exported by
// faasmem-sim/-attrib-out, or by running a scenario live — and emits
// per-phase P50/P95/P99 attribution tables whose phase columns sum exactly
// to the end-to-end latency they decompose.
//
// Usage:
//
//	faasmem-stat -bench web -policy faasmem -duration 30m       # live run
//	faasmem-stat -quick                                          # CI-sized run
//	faasmem-stat -trace spans.json                               # analyze a file
//	faasmem-stat -bench bert -format json                        # machine-readable
//	faasmem-stat -bench bert -format svg -o attrib.svg           # phase-share chart
//	faasmem-stat -bench web -attrib-out spans.json               # also export spans
//
// The `timeline` subcommand renders per-window time-series rollups instead
// of span attribution (same live-run flags, plus -window and
// -fault-intensity):
//
//	faasmem-stat timeline -bench web -window 10s                 # rollup table
//	faasmem-stat timeline -quick -fault-intensity 1              # faulted, CI-sized
//	faasmem-stat timeline -format svg -o timeline.svg            # memory chart
//	faasmem-stat timeline -quick -exemplars -format json -o run.json  # run file
//
// The `explain` and `diff` subcommands analyze run files written by
// `timeline -format json`:
//
//	faasmem-stat explain run.json                                # worst window
//	faasmem-stat explain run.json -window 12                     # one window
//	faasmem-stat diff base.json cand.json                        # regression report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "timeline":
			timelineMain(os.Args[2:])
			return
		case "explain":
			explainMain(os.Args[2:])
			return
		case "diff":
			diffMain(os.Args[2:])
			return
		}
	}
	tracePath := flag.String("trace", "", "analyze a span trace file (Chrome trace-event JSON written by -attrib-out) instead of running a scenario")
	bench := flag.String("bench", "web", "benchmark for a live run: "+strings.Join(workload.Names(), ", "))
	policyName := flag.String("policy", "faasmem", "offloading policy for a live run")
	duration := flag.Duration("duration", 30*time.Minute, "trace duration for a live run")
	gap := flag.Duration("gap", 10*time.Second, "mean inter-arrival gap")
	bursty := flag.Bool("bursty", false, "bursty (Markov-modulated) arrivals")
	keepAlive := flag.Duration("keepalive", 10*time.Minute, "keep-alive timeout")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "CI-sized run: 5-minute duration, 5s gap (overrides -duration/-gap)")
	format := flag.String("format", "text", "output format: text, json, or svg")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	attribOut := flag.String("attrib-out", "", "also export the recorded spans as Chrome trace-event JSON (nested duration events; load in https://ui.perfetto.dev)")
	buffer := flag.Int("buffer", span.DefaultCapacity, "invocation ring capacity for live runs; oldest trees drop beyond this")
	flag.Parse()

	switch *format {
	case "text", "json", "svg":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json, or svg)\n", *format)
		os.Exit(2)
	}

	var invs []span.Invocation
	var rec *span.Recorder
	if *tracePath != "" {
		var err error
		invs, _, err = span.ReadChromeTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		rec = span.NewRecorder(*buffer)
		invs = runLive(rec, *bench, *policyName, *duration, *gap, *bursty, *keepAlive, *seed, *quick)
	}

	if *attribOut != "" {
		if rec == nil {
			fmt.Fprintln(os.Stderr, "-attrib-out requires a live run (spans came from -trace)")
			os.Exit(2)
		}
		if err := span.WriteChromeTraceFile(*attribOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	an := span.Analyze(invs)

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
		err = span.WriteText(out, an)
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		err = enc.Encode(an)
	case "svg":
		_, err = io.WriteString(out, attributionSVG(an))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runLive executes one scenario with span recording attached and returns the
// recorded invocations.
func runLive(rec *span.Recorder, bench, policyName string, duration, gap time.Duration, bursty bool, keepAlive time.Duration, seed int64, quick bool) []span.Invocation {
	var prof *workload.Profile
	for _, p := range workload.Profiles() {
		if p.Name == bench {
			prof = p
		}
	}
	if prof == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; options: %s\n", bench, strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	kind := experiments.PolicyKind(policyName)
	if !experiments.ValidPolicy(kind) {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policyName)
		os.Exit(2)
	}
	if quick {
		duration = 5 * time.Minute
		gap = 5 * time.Second
	}
	fn := trace.GenerateFunction(bench, duration, gap, bursty, seed)
	experiments.RunScenario(experiments.Scenario{
		Profile:     prof,
		Invocations: fn.Invocations,
		Duration:    duration,
		KeepAlive:   keepAlive,
		Policy:      kind,
		SeedHistory: true,
		Seed:        seed,
		Telemetry:   telemetry.Hub{Spans: rec},
	})
	return rec.Invocations()
}

// attributionSVG charts the overall per-phase latency at each reported
// quantile: x = percentile, y = seconds, one series per phase that ever
// contributes, plus the end-to-end total — a quick visual of which phase
// dominates which percentile.
func attributionSVG(an *span.Analysis) string {
	ov := an.Overall
	total := report.Series{Name: "total"}
	for _, bd := range ov.Breakdowns {
		total.Points = append(total.Points, report.Point{X: bd.Q * 100, Y: bd.Total.Seconds()})
	}
	series := []report.Series{total}
	for p := span.PhaseOther; p < span.NumPhases; p++ {
		if p == span.PhaseRequest {
			continue
		}
		var any bool
		s := report.Series{Name: p.String()}
		for _, bd := range ov.Breakdowns {
			y := bd.Phase[p].Seconds()
			if y > 0 {
				any = true
			}
			s.Points = append(s.Points, report.Point{X: bd.Q * 100, Y: y})
		}
		if any {
			series = append(series, s)
		}
	}
	return report.SVGChart(report.ChartOptions{
		Title:  fmt.Sprintf("Latency attribution by percentile (n=%d)", ov.N),
		XLabel: "percentile",
		YLabel: "seconds",
		YMin:   0,
	}, series...)
}
