package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// The shape tests below check the structure of the shared seed-42 rows
// that the claims in claims_test.go index into; the paper's shape claims
// themselves are that table's entries.

func TestFig1Shape(t *testing.T) {
	if rows := sharedRows[Fig1Row](t, "fig1"); len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 timeouts", len(rows))
	}
}

func TestFig2DamonSlowdown(t *testing.T) {
	if rows := sharedRows[Fig2Row](t, "fig2"); len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 benchmarks", len(rows))
	}
}

func TestFig4Shape(t *testing.T) {
	if rows := sharedRows[Fig4Row](t, "fig4"); len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
}

func TestFig5Shape(t *testing.T) {
	if rows := sharedRows[Fig5Row](t, "fig5"); len(rows) == 0 {
		t.Fatal("no CDF points")
	}
}

func TestFig6Shape(t *testing.T) {
	rows := sharedRows[Fig6Row](t, "fig6")
	var initRows, reqRows int
	for _, r := range rows {
		switch r.Phase {
		case "init":
			initRows++
		case "request":
			reqRows++
			if r.ResidentMB < 800 {
				t.Errorf("resident %.0f MB, want >= init footprint", r.ResidentMB)
			}
		}
	}
	if initRows == 0 || reqRows != 10 {
		t.Fatalf("rows: init=%d req=%d", initRows, reqRows)
	}
}

func TestFig8RecallsAreSmall(t *testing.T) {
	rows := sharedRows[Fig8Row](t, "fig8")
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 benchmarks", len(rows))
	}
	for _, r := range rows {
		if r.Requests != 21 {
			t.Errorf("%s: requests = %d, want 21", r.Bench, r.Requests)
		}
	}
}

func TestFig9Spans(t *testing.T) {
	rows := sharedRows[Fig9Row](t, "fig9")
	if len(rows) != 25 {
		t.Fatalf("rows = %d", len(rows))
	}
	prof := workload.Web()
	sharedMB := float64(prof.InitHotBytes) / 1e6
	initMB := float64(prof.InitBytes) / 1e6
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
		}
	}
}

func TestFig12QuickShape(t *testing.T) {
	if rows := sharedRows[Fig12Row](t, "fig12"); len(rows) != 2*11*3 {
		t.Fatalf("rows = %d, want 2 loads x 11 benchmarks x 3 policies", len(rows))
	}
}

func TestTable1QuickShape(t *testing.T) {
	if rows := sharedRows[Table1Row](t, "table1"); len(rows) != 6*3*3 {
		t.Fatalf("rows = %d, want 6 traces x 3 apps x 3 policies", len(rows))
	}
}

func TestFig13QuickShape(t *testing.T) {
	rows := sharedRows[Fig13Row](t, "fig13")
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Timeline recorded for common-case runs.
	if tl := fig13At(rows, "common", FaaSMem).Timeline; tl == nil || tl.Len() == 0 {
		t.Error("common-case timeline missing")
	}
	if fig13At(rows, "bursty", FaaSMem).Timeline != nil {
		t.Error("bursty case should not record a timeline")
	}
}

func TestFig14QuickShape(t *testing.T) {
	rows := sharedRows[Fig14Class](t, "fig14")
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
	rows := sharedRows[Fig16Row](t, "fig16")
	if len(rows) != 3*20 {
		t.Fatalf("rows = %d, want 3 apps x 20 traces", len(rows))
	}
	for _, r := range rows {
		if r.BandwidthMBps < 0 {
			t.Errorf("%s trace %d: negative bandwidth", r.App, r.TraceID)
		}
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
