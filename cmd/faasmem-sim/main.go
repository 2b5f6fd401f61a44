// Command faasmem-sim runs a single serverless memory-offloading scenario
// and prints its outcome: one benchmark, one policy, one synthetic
// invocation timeline (or a real Azure CSV trace function).
//
// Usage:
//
//	faasmem-sim -bench bert -policy faasmem -duration 30m -gap 10s -bursty
//	faasmem-sim -bench web -compare
//	faasmem-sim -profiles my-profiles.json -bench mysvc -policy faasmem
//	faasmem-sim -azure trace.csv -policy faasmem     # busiest trace function
//	faasmem-sim -bench web -trace-out trace.json     # Perfetto-loadable trace
//
// Policies: baseline, tmo, damon, faasmem, faasmem-w/o-pucket,
// faasmem-w/o-semiwarm.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/report"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func main() {
	spec := experiments.Spec{Bench: "bert", Policy: "faasmem", DurationSec: 30 * 60, MeanGapSec: 10, KeepAliveSec: 10 * 60, Seed: 1}
	spec.Flags(flag.CommandLine)
	compare := flag.Bool("compare", false, "run every policy on the same trace and print a comparison table")
	profilesPath := flag.String("profiles", "", "JSON file with extra workload profiles (see workload.WriteProfiles)")
	azurePath := flag.String("azure", "", "replay the busiest function of a real Azure Functions Invocation Trace 2021 CSV instead of generating arrivals")
	traceDump := flag.Bool("trace", false, "record simulation events and dump them human-readably after the run")
	traceOut := flag.String("trace-out", "", "record simulation events and write a Chrome trace-event JSON file (load in https://ui.perfetto.dev)")
	traceBuffer := flag.Int("trace-buffer", telemetry.DefaultCapacity, "event ring capacity; oldest events drop beyond this")
	attrib := flag.Bool("attrib", false, "record causal spans and print a per-phase latency attribution table after the run")
	timeline := flag.Bool("timeline", false, "record per-window time-series rollups and print the timeline table after the run")
	timelineWindow := flag.Duration("timeline-window", 10*time.Second, "rollup window for -timeline and -exemplars (virtual time)")
	exemplars := flag.Bool("exemplars", false, "retain worst-K span trees per window and print the tail-exemplar digest after the run")
	exemplarK := flag.Int("exemplar-k", exemplar.DefaultK, "worst-K retention depth per (window, node, tenant) cell for -exemplars")
	flag.Float64Var(&spec.FaultIntensity, "fault-intensity", 0, "arm a seed-driven fault plan at this intensity in [0, 1] (link flaps, pool crashes, tier storms, latency spikes); 0 runs fault-free")
	flag.Int64Var(&spec.FaultSeed, "fault-seed", 0, "seed for the fault schedule; defaults to -seed")
	attribOut := flag.String("attrib-out", "", "record causal spans and write them as Chrome trace-event JSON (nested duration events; implies span recording)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}
	benchPinned := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "bench" {
			benchPinned = true
		}
	})

	available := workload.Profiles()
	var custom *workload.Profile // a -profiles entry, which Normalize does not know
	if *profilesPath != "" {
		extra, err := workload.LoadProfiles(*profilesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		available = append(available, extra...)
		for _, p := range extra {
			if custom == nil && p.Name == spec.Bench && workload.ByName(p.Name) == nil {
				custom = p
				spec.Bench = "" // arrivals do not depend on the name: check the default
			}
		}
	}
	if err := spec.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prof := custom
	if prof == nil {
		prof = workload.ByName(spec.Bench)
	}

	var sc experiments.Scenario
	if *azurePath != "" {
		fn, p, err := azureFunction(*azurePath, prof, available, benchPinned)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc = spec.ScenarioOn(p, fn.Invocations, lastInvocation(fn)+time.Second, telemetry.Hub{})
	} else {
		sc = spec.Scenario(telemetry.Hub{})
		sc.Profile = prof
	}
	if *compare {
		fmt.Printf("%s: %d requests over %v (gap %v, bursty=%v)\n\n", sc.Profile.Name, len(sc.Invocations), sc.Duration,
			time.Duration(spec.MeanGapSec*float64(time.Second)), spec.Bursty)
		fmt.Printf("  %-22s %8s %8s %8s %12s %12s\n", "policy", "P50", "P95", "P99", "avg mem", "offloaded")
		for _, pk := range experiments.PolicyKinds() {
			sc.Policy = pk
			o := experiments.RunScenario(sc)
			fmt.Printf("  %-22s %7.3fs %7.3fs %7.3fs %9.1f MB %9.1f MB\n",
				pk, o.P50, o.P95, o.P99, o.AvgLocalMB, o.OffloadedMB)
		}
		return
	}
	var hub telemetry.Hub
	if *traceDump || *traceOut != "" {
		hub.Tracer = telemetry.NewTracer(*traceBuffer)
		hub.Reg = telemetry.NewRegistry()
	}
	if *attrib || *attribOut != "" {
		hub.Spans = span.NewRecorder(span.DefaultCapacity)
	}
	if *timeline {
		hub.Timeline = timeseries.NewRecorder(timeseries.Config{Window: *timelineWindow})
	}
	if *exemplars {
		hub.Exemplars = exemplar.NewRecorder(exemplar.Config{Window: *timelineWindow, K: *exemplarK})
	}
	sc.Telemetry = hub
	out := experiments.RunScenario(sc)

	ok := out.Requests > 0
	fmt.Printf("benchmark        %s (%s policy)\n", sc.Profile.Name, sc.Policy)
	fmt.Printf("requests         %d  (cold %d, warm %d, semi-warm %d)\n",
		out.Requests, out.ColdStarts, out.WarmStarts, out.SemiWarmStarts)
	fmt.Printf("latency          avg %s  P50 %s  P95 %s  P99 %s\n",
		report.Stat("%.3fs", out.AvgLat, ok), report.Stat("%.3fs", out.P50, ok),
		report.Stat("%.3fs", out.P95, ok), report.Stat("%.3fs", out.P99, ok))
	fmt.Printf("local memory     avg %.1f MB  peak %.1f MB\n", out.AvgLocalMB, out.PeakLocalMB)
	fmt.Printf("remote memory    avg %.1f MB\n", out.AvgRemoteMB)
	fmt.Printf("pool traffic     offloaded %.1f MB (%.3f MB/s)  recalled %.1f MB (%.3f MB/s)\n",
		out.OffloadedMB, out.OffloadBWMBps, out.RecalledMB, out.RecallBWMBps)
	fmt.Printf("page faults      %d (runtime segment: %d)\n", out.FaultPages, out.RuntimeFaultPages)
	if cs := out.CoreStats; cs != nil {
		fmt.Printf("faasmem          runtime offloads %d, init offloads %d, rollbacks %d, semi-warm entries %d\n",
			cs.RuntimeOffloads, cs.InitOffloads, cs.Rollbacks, cs.SemiWarmEntries)
	}
	if rec := out.Recovery; rec != nil {
		fmt.Printf("fault recovery   retries %d, timeouts %d, fallback pages %d, cold re-inits %d\n",
			rec.FetchRetries, rec.FetchTimeouts, rec.FallbackPages, rec.ColdReinits)
		fmt.Printf("completions      normal %d, rescheduled %d, re-init %d\n",
			rec.DoneNormal, rec.DoneRescheduled, rec.DoneReinit)
	}

	if tr := hub.Tracer; tr != nil {
		fmt.Printf("telemetry        %d events recorded (%d dropped by the %d-event ring)\n",
			tr.Total(), tr.Dropped(), *traceBuffer)
		if *traceOut != "" {
			if err := telemetry.WriteChromeTraceFile(*traceOut, tr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("trace written    %s  (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
		}
		if *traceDump {
			fmt.Println()
			if err := telemetry.WriteText(os.Stdout, tr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if spans := hub.Spans; spans != nil {
		if *attribOut != "" {
			if err := span.WriteChromeTraceFile(*attribOut, spans); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("spans written    %s  (faasmem-stat -trace %s, or load in https://ui.perfetto.dev)\n", *attribOut, *attribOut)
		}
		if *attrib {
			fmt.Println()
			if err := span.WriteText(os.Stdout, span.Analyze(spans.Invocations())); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if tl := hub.Timeline; tl != nil {
		fmt.Println()
		if err := timeseries.WriteText(os.Stdout, tl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if exm := hub.Exemplars; exm != nil {
		fmt.Println()
		if err := drilldown.WriteExemplarsText(os.Stdout, exm.Cells()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// azureFunction loads a real Azure CSV and returns its busiest function,
// paired with the available profile whose execution time is nearest the
// function's measured mean duration (unless the user pinned -bench).
func azureFunction(path string, pinned *workload.Profile, available []*workload.Profile, userPinned bool) (*trace.Function, *workload.Profile, error) {
	tr, durations, err := trace.LoadAzureCSV(path)
	if err != nil {
		return nil, nil, err
	}
	var busiest *trace.Function
	for _, f := range tr.Functions {
		if busiest == nil || len(f.Invocations) > len(busiest.Invocations) {
			busiest = f
		}
	}
	prof := pinned
	if !userPinned {
		mean := trace.MeanDuration(durations[busiest.ID])
		best := math.Inf(1)
		for _, p := range available {
			if d := math.Abs((p.ExecTime - mean).Seconds()); d < best {
				best = d
				prof = p
			}
		}
	}
	fmt.Printf("azure trace %s: replaying %q (%d invocations, mean duration %v) as %q\n",
		path, busiest.ID, len(busiest.Invocations),
		trace.MeanDuration(durations[busiest.ID]).Round(time.Millisecond), prof.Name)
	return busiest, prof, nil
}

func lastInvocation(f *trace.Function) simtime.Time {
	if len(f.Invocations) == 0 {
		return 0
	}
	return f.Invocations[len(f.Invocations)-1]
}
