package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

func TestFig1Shape(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{NumFunctions: 80, Duration: 6 * time.Hour}, 3)
	rows := Fig1(Fig1Options{Trace: tr, Timeouts: []time.Duration{
		10 * time.Second, time.Minute, 10 * time.Minute,
	}})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Inactive time grows with timeout; cold-start ratio falls.
	if !(rows[0].InactiveFraction < rows[1].InactiveFraction && rows[1].InactiveFraction < rows[2].InactiveFraction) {
		t.Errorf("inactive fractions not increasing: %+v", rows)
	}
	if !(rows[0].ColdStartRatio > rows[2].ColdStartRatio) {
		t.Errorf("cold-start ratio not decreasing: %+v", rows)
	}
	// Paper's anchors: ~89% at 10 min, ~70% at 1 min (generous bands).
	if rows[2].InactiveFraction < 0.75 {
		t.Errorf("10-minute inactive fraction = %.2f, want > 0.75", rows[2].InactiveFraction)
	}
	if rows[1].InactiveFraction < 0.5 {
		t.Errorf("1-minute inactive fraction = %.2f, want > 0.5", rows[1].InactiveFraction)
	}
}

func TestFig2DamonSlowdown(t *testing.T) {
	rows := Fig2(Fig2Options{
		Duration: 30 * time.Minute,
		MeanGap:  25 * time.Second,
		Benches:  []string{"json", "web", "graph"},
		Seed:     5,
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Slowdown <= 1 {
			t.Errorf("%s: DAMON slowdown %.2f, want > 1", r.Bench, r.Slowdown)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Platform.String()+"/"+r.Language.String()] = r.InactiveMB
		if r.InactiveMB <= 0 {
			t.Errorf("%v/%v inactive = %v", r.Platform, r.Language, r.InactiveMB)
		}
	}
	// Paper's shape: Azure > 100 MB-ish; Java largest per platform;
	// OpenWhisk Python ≈ 24 MB minus its hot slice.
	if byKey["OpenWhisk/Java"] <= byKey["OpenWhisk/Python"] {
		t.Error("OpenWhisk Java should exceed Python")
	}
	if byKey["Azure/Python"] <= byKey["OpenWhisk/Python"] {
		t.Error("Azure runtimes should exceed OpenWhisk")
	}
	if byKey["OpenWhisk/Python"] < 18 || byKey["OpenWhisk/Python"] > 25 {
		t.Errorf("OpenWhisk Python inactive = %.0f MB, want ~22", byKey["OpenWhisk/Python"])
	}
}

func TestFig5Shape(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{NumFunctions: 150, Duration: 8 * time.Hour}, 9)
	rows := Fig5(Fig5Options{Trace: tr})
	if len(rows) == 0 {
		t.Fatal("no CDF points")
	}
	last := rows[len(rows)-1]
	if last.CumFrac != 1 {
		t.Errorf("CDF must end at 1, got %v", last.CumFrac)
	}
	if Fig5AtMost(rows, 2) < 0.3 {
		t.Errorf("share of containers with <= 2 requests = %.2f, want substantial", Fig5AtMost(rows, 2))
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6(Fig6Options{Requests: 5, Seed: 2})
	var initRows, reqRows int
	for _, r := range rows {
		switch r.Phase {
		case "init":
			initRows++
		case "request":
			reqRows++
			// Paper: ~610 MB accessed per request.
			if r.AccessedMB < 500 || r.AccessedMB > 750 {
				t.Errorf("request accessed %.0f MB, want ~610", r.AccessedMB)
			}
			if r.ResidentMB < 800 {
				t.Errorf("resident %.0f MB, want >= init footprint", r.ResidentMB)
			}
		}
	}
	if initRows == 0 || reqRows != 5 {
		t.Fatalf("rows: init=%d req=%d", initRows, reqRows)
	}
}

func TestFig8RecallsAreSmall(t *testing.T) {
	rows := Fig8(Fig8Options{Requests: 10, Seed: 4})
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 benchmarks", len(rows))
	}
	for _, r := range rows {
		// Paper: 0–3 recall pages.
		if r.RecallPages > 8 {
			t.Errorf("%s: %d runtime recalls, want near zero", r.Bench, r.RecallPages)
		}
		if r.Requests != 11 {
			t.Errorf("%s: requests = %d, want 11", r.Bench, r.Requests)
		}
	}
}

func TestFig9Spans(t *testing.T) {
	rows := Fig9(30, 6)
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	prof := workload.Web()
	sharedMB := float64(prof.InitHotBytes) / 1e6
	initMB := float64(prof.InitBytes) / 1e6
	distinct := map[float64]bool{}
	for _, r := range rows {
		if r.SharedMB != sharedMB {
			t.Errorf("shared = %v, want %v", r.SharedMB, sharedMB)
		}
		if len(r.Objects) < 1 || len(r.Objects) > prof.ObjectsPerRequest {
			t.Errorf("request %d touched %d objects", r.Request, len(r.Objects))
		}
		for _, o := range r.Objects {
			if o.StartMB < sharedMB || o.EndMB > initMB {
				t.Errorf("object span %v-%v escapes init segment", o.StartMB, o.EndMB)
			}
			distinct[o.StartMB] = true
		}
	}
	if len(distinct) < 3 {
		t.Errorf("only %d distinct objects over 30 requests; Pareto tail missing", len(distinct))
	}
}

func TestFig12QuickShape(t *testing.T) {
	rows := Fig12(Fig12Options{
		Duration: 12 * time.Minute,
		Benches:  []string{"web", "json"},
		Seed:     11,
	})
	if len(rows) != 2*2*3 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	get := func(load, bench string, pk PolicyKind) Fig12Row {
		for _, r := range rows {
			if r.Load == load && r.Bench == bench && r.Policy == pk {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%s", load, bench, pk)
		return Fig12Row{}
	}
	for _, load := range []string{"high", "low"} {
		for _, bench := range []string{"web", "json"} {
			base := get(load, bench, Baseline)
			tmo := get(load, bench, TMO)
			fm := get(load, bench, FaaSMem)
			if fm.AvgLocalMB >= base.AvgLocalMB {
				t.Errorf("%s/%s: FaaSMem mem %.1f not below baseline %.1f", load, bench, fm.AvgLocalMB, base.AvgLocalMB)
			}
			if fm.AvgLocalMB >= tmo.AvgLocalMB {
				t.Errorf("%s/%s: FaaSMem mem %.1f not below TMO %.1f", load, bench, fm.AvgLocalMB, tmo.AvgLocalMB)
			}
			// Latency must stay in the same ballpark (paper: ≤ ~10%; we
			// allow a wider simulated band).
			if fm.P95 > base.P95*1.3+0.05 {
				t.Errorf("%s/%s: FaaSMem P95 %.3f vs base %.3f exceeds band", load, bench, fm.P95, base.P95)
			}
		}
	}
}

func TestTable1QuickShape(t *testing.T) {
	rows := Table1(Table1Options{Duration: 8 * time.Minute, Traces: 2, Seed: 13})
	if len(rows) != 2*3*3 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	// Per (trace, app): FaaSMem offloads more than TMO.
	for id := 1; id <= 2; id++ {
		for _, app := range []string{"bert", "graph", "web"} {
			var tmoRatio, fmRatio float64
			for _, r := range rows {
				if r.TraceID == id && r.App == app {
					switch r.Policy {
					case TMO:
						tmoRatio = r.OffloadRatio
					case FaaSMem:
						fmRatio = r.OffloadRatio
					}
				}
			}
			if fmRatio <= tmoRatio {
				t.Errorf("trace %d %s: FaaSMem ratio %.2f <= TMO %.2f", id, app, fmRatio, tmoRatio)
			}
		}
	}
}

func TestFig13QuickShape(t *testing.T) {
	rows := Fig13(Fig13Options{Duration: 12 * time.Minute, Seed: 17, WithTimeline: true})
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	get := func(cs string, v PolicyKind) Fig13Row {
		for _, r := range rows {
			if r.Case == cs && r.Variant == v {
				return r
			}
		}
		t.Fatalf("missing %s/%s", cs, v)
		return Fig13Row{}
	}
	for _, cs := range []string{"common", "bursty"} {
		base := get(cs, Baseline)
		full := get(cs, FaaSMem)
		noP := get(cs, FaaSMemNoPucket)
		noS := get(cs, FaaSMemNoSemi)
		if full.AvgMemMB >= base.AvgMemMB {
			t.Errorf("%s: FaaSMem mem not below baseline", cs)
		}
		if noP.AvgMemMB < full.AvgMemMB {
			t.Errorf("%s: removing Pucket should not reduce memory", cs)
		}
		if noS.AvgMemMB < full.AvgMemMB {
			t.Errorf("%s: removing Semi-warm should not reduce memory", cs)
		}
	}
	// Timeline recorded for common-case runs.
	if get("common", FaaSMem).Timeline == nil || get("common", FaaSMem).Timeline.Len() == 0 {
		t.Error("common-case timeline missing")
	}
	if get("bursty", FaaSMem).Timeline != nil {
		t.Error("bursty case should not record a timeline")
	}
}

func TestFig14QuickShape(t *testing.T) {
	rows := Fig14(Fig14Options{NumFunctions: 60, Duration: 3 * time.Hour, Seed: 19})
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 classes", len(rows))
	}
	totalContainers := 0
	for _, r := range rows {
		totalContainers += r.Containers
		if r.MedianShare < 0 || r.MedianShare > 1 {
			t.Errorf("%v median share %v out of [0,1]", r.Class, r.MedianShare)
		}
		for _, pt := range r.ShareCDF {
			if pt.Value < 0 || pt.Value > 1 {
				t.Errorf("%v share CDF value %v out of range", r.Class, pt.Value)
			}
		}
	}
	if totalContainers == 0 {
		t.Fatal("no containers recycled in the study window")
	}
}

func TestFig15OverheadBounds(t *testing.T) {
	rows := Fig15()
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The kernel implementation stays under 10 ms; our in-memory walk
		// must also be milliseconds-scale even for Bert's 800 MB segment.
		if r.RuntimeInitBarrier > 100*time.Millisecond ||
			r.InitExecBarrier > 500*time.Millisecond ||
			r.Rollback > 500*time.Millisecond {
			t.Errorf("%s: overheads %v/%v/%v too large", r.Bench,
				r.RuntimeInitBarrier, r.InitExecBarrier, r.Rollback)
		}
	}
	// Applications' init-exec barrier seals a larger Pucket than micro
	// benchmarks'. Host time is too noisy to order, so the ordering is
	// asserted on the page count the barrier seals, not on measured
	// nanoseconds.
	stamped := func(prof *workload.Profile) int {
		space := pagemem.NewSpace(pagemem.DefaultPageSize)
		space.AllocBytes(prof.RuntimeBytes)
		initRange := space.AllocBytes(prof.InitBytes)
		return initRange.Len()
	}
	if bert, js := stamped(workload.ByName("bert")), stamped(workload.ByName("json")); bert <= js {
		t.Errorf("bert init-exec barrier stamps %d pages, should exceed json's %d", bert, js)
	}
}

func TestFig16QuickShape(t *testing.T) {
	rows := Fig16(Fig16Options{Traces: 4, Duration: 10 * time.Minute, Seed: 23, Apps: []string{"graph", "web"}})
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	maxDensity := map[string]float64{}
	for _, r := range rows {
		if r.Density < 1 {
			t.Errorf("%s trace %d: density %.2f < 1", r.App, r.TraceID, r.Density)
		}
		if r.BandwidthMBps < 0 {
			t.Errorf("negative bandwidth")
		}
		if r.Density > maxDensity[r.App] {
			maxDensity[r.App] = r.Density
		}
	}
	// Paper: Web gains the most density (2.2× vs 1.4×).
	if maxDensity["web"] <= maxDensity["graph"] {
		t.Errorf("web max density %.2f should exceed graph %.2f", maxDensity["web"], maxDensity["graph"])
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var sb strings.Builder
	printRows(&sb, "Figure 1", []Fig1Row{{Timeout: time.Minute, InactiveFraction: 0.7, ColdStartRatio: 0.1}})
	printRows(&sb, "Figure 2", []Fig2Row{{Bench: "json", BaseP95: 0.1, DamonP95: 1.4, Slowdown: 14}})
	printRows(&sb, "Figure 4", []Fig4Row{{Platform: workload.OpenWhisk, Language: workload.Python, InactiveMB: 22}})
	PrintFig5(&sb, []Fig5Row{{Requests: 2, CumFrac: 0.6}})
	printRows(&sb, "Figure 6", []Fig6Row{{TimeSec: 1, Phase: "init", ResidentMB: 100, AccessedMB: 100}})
	printRows(&sb, "Figure 8", []Fig8Row{{Bench: "web", RecallPages: 1, Requests: 20}})
	PrintFig9(&sb, []Fig9Row{{Request: 0, SharedMB: 20, Objects: []Fig9Span{{21, 22}}}})
	printRows(&sb, "Figure 12", []Fig12Row{{Bench: "web", Load: "high", Policy: FaaSMem, AvgLocalMB: 100, MemVsBase: 0.3, P95: 0.1, P95VsBase: 1.02}})
	printRows(&sb, "Figure 13", []Fig13Row{{Case: "common", Variant: FaaSMem, AvgMemMB: 500, MemVsFaaSMem: 1}})
	PrintFig14(&sb, []Fig14Class{{Class: trace.HighLoad, MedianShare: 0.5, Containers: 10}})
	printRows(&sb, "Figure 15", []Fig15Row{{Bench: "json", RuntimeInitBarrier: time.Millisecond, InitExecBarrier: time.Millisecond, Rollback: time.Millisecond}})
	printRows(&sb, "Figure 16", []Fig16Row{{App: "web", TraceID: 1, ReqPerMinute: 10, IntervalSigmaSec: 4, BandwidthMBps: 0.5, Density: 2.2}})
	printRows(&sb, "Table 1", []Table1Row{{TraceID: 1, App: "bert", Policy: FaaSMem, P95: 0.15, MemGB: 1.6, OffloadRatio: 0.4}})
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 4", "Figure 5", "Figure 6", "Figure 8", "Figure 9", "Figure 12", "Figure 13", "Figure 14", "Figure 15", "Figure 16", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestSweepAndCSV(t *testing.T) {
	prof := workload.ByName("json")
	inv := LowLoadInvocations(5*time.Minute, 3)
	points := []SweepPoint{
		{Label: "a", Scenario: Scenario{Profile: prof, Invocations: inv, Duration: 5 * time.Minute, Policy: Baseline, Seed: 3}},
		{Label: "b", Scenario: Scenario{Profile: prof, Invocations: inv, Duration: 5 * time.Minute, Policy: FaaSMem, Seed: 3}},
	}
	results := Sweep(points)
	if len(results) != 2 || results[0].Label != "a" || results[1].Label != "b" {
		t.Fatalf("results = %+v", results)
	}
	if results[1].Outcome.AvgLocalMB >= results[0].Outcome.AvgLocalMB {
		t.Error("faasmem point should use less memory")
	}
	var sb strings.Builder
	if err := WriteSweepCSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,policy,requests") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a,baseline,") || !strings.HasPrefix(lines[2], "b,faasmem,") {
		t.Fatalf("csv rows = %q / %q", lines[1], lines[2])
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Profile:     workload.ByName("web"),
		Invocations: HighLoadInvocations(5*time.Minute, 9),
		Duration:    5 * time.Minute,
		Policy:      FaaSMem,
		SeedHistory: true,
		Seed:        9,
	}
	a := RunScenario(sc)
	a.CoreStats = nil // pointer differs between runs by construction
	b := RunScenario(sc)
	b.CoreStats = nil
	if a != b {
		t.Fatalf("identical scenarios diverged:\n%+v\n%+v", a, b)
	}
}
