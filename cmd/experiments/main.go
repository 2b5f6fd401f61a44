// Command experiments regenerates every table and figure of the paper's
// evaluation and prints the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-only fig12,table1] [-seed 42] [-json dir] [-svg dir]
//	            [-parallel N] [-scenario-workers N] [-cpuprofile f] [-memprofile f]
//	experiments -list
//
// The experiments are defined once, in experiments.Registry, at the
// paper-scale windows (1-hour traces, 424-function studies); -list prints
// their names, and an unknown -only name exits 2. Experiments run in
// parallel worker goroutines (-parallel), and each figure's scenario grid
// additionally fans out across a scenario-level pool (-scenario-workers,
// default GOMAXPROCS); every simulation is single-threaded and deterministic
// and rows assemble in canonical order, so output is identical at any
// width. When a sink flag (-trace-out, -attrib, -timeline, -exemplars) is
// set, experiments run one after another in registry order instead, and
// each records its grid cells into the shared sinks one at a time in index
// order at any -scenario-workers width, so the captures are identical at
// any width too. The sinks capture every platform, rack and pool an
// experiment builds, so fig1, fig5, fig6, fig9 and fig15, which build none,
// are the only entries that record nothing. A sink an experiment sets
// itself is kept: ext-attrib's spans, the ext-stateful timeline, and the
// timelines and exemplars of the fault-rack runs ext-observe and
// ext-drilldown share stay in their own recorders. -cpuprofile and
// -memprofile capture pprof profiles of the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/chrome"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of the experiments (see -list)")
	list := flag.Bool("list", false, "print the experiment names, one per line, and exit; wall-clock experiments, whose rows differ between runs, carry a second column 'wall-clock'")
	seed := flag.Int64("seed", 42, "random seed for all synthetic traces")
	jsonDir := flag.String("json", "", "also write each experiment's rows as JSON files into this directory (like the artifact's result files)")
	svgDir := flag.String("svg", "", "also write SVG charts of the main figures into this directory (like the artifact's draw scripts)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "number of experiments to run concurrently (1 when a sink flag is set)")
	scenarioWorkers := flag.Int("scenario-workers", 0, "scenario-level fan-out inside each figure's grid (0 = GOMAXPROCS); rows are identical for any width; with a sink flag set, every grid runs serially")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceOut := flag.String("trace-out", "", "record the experiments' simulation events into one Chrome trace-event JSON file")
	traceBuffer := flag.Int("trace-buffer", telemetry.DefaultCapacity, "event ring capacity for -trace-out")
	attrib := flag.Bool("attrib", false, "record the experiments' causal spans and print one latency-attribution table at the end (ext-attrib keeps its spans)")
	timelineOut := flag.String("timeline", "", "record the experiments' per-window time-series rollups and write the timeline table to this file ('-' for stdout; ext-observe, ext-drilldown and ext-stateful keep their timelines)")
	timelineWindow := flag.Duration("timeline-window", 10*time.Second, "rollup window for -timeline (virtual time)")
	exemplarsOut := flag.String("exemplars", "", "retain the experiments' worst-K span trees per window and write the exemplar digest to this file ('-' for stdout; ext-observe and ext-drilldown keep theirs)")
	exemplarK := flag.Int("exemplar-k", exemplar.DefaultK, "worst-K retention depth for -exemplars")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			if e.WallClock {
				fmt.Printf("%s\twall-clock\n", e.Name)
			} else {
				fmt.Println(e.Name)
			}
		}
		return
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	selected, err := experiments.Select(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	experiments.SetWorkers(*scenarioWorkers)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	for _, dir := range []string{*jsonDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	// Every platform, rack and pool picks up the process-default hub when it
	// attaches its own (each nil sink falls back to it), so one flag per sink
	// captures every experiment without plumbing.
	var hub telemetry.Hub
	if *traceOut != "" {
		hub.Tracer = telemetry.NewTracer(*traceBuffer)
		hub.Reg = telemetry.NewRegistry()
	}
	if *attrib {
		hub.Spans = span.NewRecorder(span.DefaultCapacity)
	}
	if *timelineOut != "" {
		hub.Timeline = timeseries.NewRecorder(timeseries.Config{Window: *timelineWindow})
	}
	if *exemplarsOut != "" {
		hub.Exemplars = exemplar.NewRecorder(exemplar.Config{Window: *timelineWindow, K: *exemplarK})
	}
	telemetry.SetDefault(hub)

	// Run experiments in a bounded worker pool; buffer output per experiment
	// so the report prints in canonical order regardless of completion order.
	// With a sink on, experiments run one at a time, in registry order, and
	// each records its grid cells serially in index order, so the sinks fill
	// the same way on every run.
	type result struct {
		out  bytes.Buffer
		rows any
		svgs map[string]string
	}
	results := make([]result, len(selected))
	workers := *parallel
	if workers < 1 || hub != (telemetry.Hub{}) {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range selected {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i].rows, results[i].svgs = selected[i].Run(&results[i].out, *seed)
		}(i)
	}
	wg.Wait()

	for i, e := range selected {
		os.Stdout.Write(results[i].out.Bytes())
		fmt.Println()
		if *jsonDir != "" && results[i].rows != nil {
			writeJSON(filepath.Join(*jsonDir, e.Name+".json"), results[i].rows)
		}
		if *svgDir != "" {
			for name, svg := range results[i].svgs {
				if err := os.WriteFile(filepath.Join(*svgDir, name+".svg"), []byte(svg), 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}

	if tracer := hub.Tracer; tracer != nil {
		if err := telemetry.WriteChromeTraceFile(*traceOut, tracer); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events (%d dropped) written to %s — open in https://ui.perfetto.dev\n",
			tracer.Total(), tracer.Dropped(), *traceOut)
	}
	if hub.Spans != nil {
		if err := span.WriteText(os.Stdout, span.Analyze(hub.Spans.Invocations())); err != nil {
			fatal(err)
		}
	}
	if hub.Timeline != nil {
		writeSink(*timelineOut, func(w io.Writer) error { return timeseries.WriteText(w, hub.Timeline) })
	}
	if hub.Exemplars != nil {
		writeSink(*exemplarsOut, func(w io.Writer) error {
			return drilldown.WriteExemplarsText(w, hub.Exemplars.Cells())
		})
	}
}

// writeSink writes one sink's text to path, or to stdout for '-'.
func writeSink(path string, write func(io.Writer) error) {
	var err error
	if path == "-" {
		err = write(os.Stdout)
	} else {
		err = chrome.WriteFile(path, write)
	}
	if err != nil {
		fatal(err)
	}
}

func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
