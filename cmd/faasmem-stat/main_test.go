package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickstartAttributionReconciles is the acceptance check: running the
// quickstart scenario (web profile, a request every 20 s for 10 minutes,
// 10-minute keep-alive, seed 1) through the analyzer must yield per-phase
// P50/P95/P99 breakdowns whose phase columns sum exactly to the end-to-end
// latency they decompose.
func TestQuickstartAttributionReconciles(t *testing.T) {
	const n = 30
	invocations := make([]simtime.Time, n)
	for i := range invocations {
		invocations[i] = simtime.Time(i) * simtime.Time(20*time.Second)
	}
	rec := span.NewRecorder(0)
	experiments.RunScenario(experiments.Scenario{
		Profile:     workload.Web(),
		Invocations: invocations,
		KeepAlive:   10 * time.Minute,
		Policy:      experiments.FaaSMem,
		Seed:        1,
		Telemetry:   telemetry.Hub{Spans: rec},
	})
	invs := rec.Invocations()
	if len(invs) != n {
		t.Fatalf("recorded %d invocations, want %d", len(invs), n)
	}
	an := span.Analyze(invs)
	if an.Overall.N != n {
		t.Fatalf("analysis N = %d, want %d", an.Overall.N, n)
	}
	if len(an.Overall.Breakdowns) != 3 {
		t.Fatalf("want P50/P95/P99 breakdowns, got %d", len(an.Overall.Breakdowns))
	}
	for _, at := range append([]span.Attribution{an.Overall}, an.PerFunction...) {
		for _, bd := range at.Breakdowns {
			var sum time.Duration
			for _, d := range bd.Phase {
				sum += d
			}
			if sum != bd.Total {
				t.Fatalf("%q q=%v: phase sum %v != total %v (drift %v)",
					at.Function, bd.Q, sum, bd.Total, sum-bd.Total)
			}
		}
	}
	// The trees themselves must also tile: every invocation reconciles.
	for _, inv := range invs {
		cp := span.CriticalPath(inv)
		var sum time.Duration
		for _, d := range cp {
			sum += d
		}
		if sum != inv.Total() {
			t.Fatalf("invocation at %v: critical path %v != total %v",
				inv.Root.Start, sum, inv.Total())
		}
	}
}

// TestQuickAttributionGolden pins the -quick text output byte for byte; CI
// regenerates it and diffs, the same determinism gate as the width-1-vs-8
// experiments diff.
func TestQuickAttributionGolden(t *testing.T) {
	rec := span.NewRecorder(span.DefaultCapacity)
	invs := runLive(rec, liveSpec(cliSpec(), true))
	var buf bytes.Buffer
	if err := span.WriteText(&buf, span.Analyze(invs)); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quick_attrib_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-quick attribution drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestQuickTimelineGolden pins `timeline -quick -fault-intensity 1` byte for
// byte — the faulted per-window rollup, including which windows the flight
// recorder dumped. CI regenerates the same table and diffs.
func TestQuickTimelineGolden(t *testing.T) {
	spec := cliSpec()
	spec.FaultIntensity = 1
	rec := runTimelineScenario(liveSpec(spec, true), 10*time.Second, nil)
	var buf bytes.Buffer
	if err := timeseries.WriteText(&buf, rec); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quick_timeline_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-quick timeline drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
