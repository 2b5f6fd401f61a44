package drilldown

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// testRun builds a three-window run with a latency spike in window 1, one
// flow row per window, and an exemplar in the spike window.
func testRun() Run {
	exInv := span.Invocation{
		Function:  "web",
		Container: "web#1",
		Kind:      span.Cold,
		Root: span.Span{
			Phase: span.PhaseRequest, Dur: 2 * time.Second,
			Children: []span.Span{
				{Phase: span.PhaseInit, Dur: 1500 * time.Millisecond},
				{Phase: span.PhaseExec, Start: simtime.Time(1500 * time.Millisecond), Dur: 500 * time.Millisecond},
			},
		},
	}
	return Run{
		Timeline: timeseries.Snapshot{
			WindowSec: 10,
			Summary: []timeseries.SummaryRow{
				{Window: 0, StartSec: 0, Requests: 10, P99Ms: 100},
				{Window: 1, StartSec: 10, Requests: 8, P99Ms: 2000, Retries: 3},
				{Window: 2, StartSec: 20, Requests: 12, P99Ms: 90},
			},
			Flows: []timeseries.FlowRow{
				{Window: 0, Flow: "offload", Direction: 1, Node: "pool", Tenant: "web", Bytes: 1 << 20},
				{Window: 1, Flow: "fallback", Direction: -1, Node: "pool", Tenant: "web", Bytes: 1 << 18},
				{Window: 2, Flow: "recall", Direction: -1, Node: "pool", Tenant: "web", Bytes: 1 << 19},
			},
			FlowAudit: &timeseries.FlowAudit{Runs: 1, Checks: 3, OK: true},
		},
		Exemplars: []exemplar.Cell{
			{
				Key:   exemplar.Key{Window: 1, Node: "n0", Tenant: "web"},
				Count: 8,
				Top: []exemplar.Exemplar{
					{At: simtime.Time(12 * time.Second), Latency: 2 * time.Second, Invocation: exInv},
				},
			},
		},
	}
}

func TestParseRunLenient(t *testing.T) {
	run := testRun()
	envelope, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.Marshal(run.Timeline)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ParseRun(envelope)
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if len(got.Exemplars) != 1 || len(got.Timeline.Summary) != 3 {
		t.Errorf("envelope parse lost data: %d exemplars, %d windows",
			len(got.Exemplars), len(got.Timeline.Summary))
	}

	got, err = ParseRun(bare)
	if err != nil {
		t.Fatalf("bare snapshot: %v", err)
	}
	if len(got.Timeline.Summary) != 3 || len(got.Exemplars) != 0 {
		t.Errorf("bare parse: %d windows, %d exemplars", len(got.Timeline.Summary), len(got.Exemplars))
	}

	if _, err := ParseRun([]byte(`{"hello": 1}`)); err == nil {
		t.Error("empty object accepted as a run")
	}
	if _, err := ParseRun([]byte(`not json`)); err == nil {
		t.Error("garbage accepted as a run")
	}
	// Out-of-range enums anywhere in an exemplar tree are rejected at parse
	// time; rendering the phase one used to index past the phase table.
	for _, bad := range []string{
		`{"timeline":{"summary":[{"window":0}]},"exemplars":[{"top":[{"invocation":{"root":{"start":1000000000,"children":[{"phase":17}]}}}]}]}`,
		`{"timeline":{"summary":[{"window":0}]},"exemplars":[{"typical":{"invocation":{"kind":9,"root":{"start":1000000000}}}}]}`,
	} {
		if _, err := ParseRun([]byte(bad)); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ParseRun(%s) = %v, want an out-of-range error", bad, err)
		}
	}
}

func TestExplainAutoPicksWorstWindow(t *testing.T) {
	ex, err := Explain(testRun(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.AutoPicked || ex.Window != 1 {
		t.Fatalf("picked window %d (auto=%v), want the 2000ms spike in window 1",
			ex.Window, ex.AutoPicked)
	}
	if ex.Summary == nil || ex.Summary.P99Ms != 2000 {
		t.Error("summary row not attached")
	}
	if ex.PrevSummary == nil || ex.PrevSummary.Window != 0 {
		t.Error("previous summary row not attached")
	}
	if len(ex.Flows) != 1 || ex.Flows[0].Flow != "fallback" {
		t.Errorf("flows = %+v, want the window's fallback row only", ex.Flows)
	}
	if ex.FlowAudit == nil || !ex.FlowAudit.OK {
		t.Error("flow audit not attached")
	}
	if len(ex.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v", ex.Exemplars)
	}
	top := ex.Exemplars[0].Top
	if len(top) != 1 || top[0].LatencyMs != 2000 || top[0].Kind != "cold" {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Dominant != span.PhaseInit.String() {
		t.Errorf("dominant = %q, want init", top[0].Dominant)
	}
	if len(top[0].Phases) == 0 || top[0].Phases[0].Phase != span.PhaseInit.String() {
		t.Errorf("phases not sorted largest-first: %+v", top[0].Phases)
	}
}

func TestExplainExplicitAndMissingWindow(t *testing.T) {
	ex, err := Explain(testRun(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AutoPicked || ex.Window != 2 || len(ex.Exemplars) != 0 {
		t.Errorf("explicit window 2: %+v", ex)
	}
	if _, err := Explain(testRun(), 99); err == nil {
		t.Error("missing window accepted")
	}
	if _, err := Explain(Run{}, -1); err == nil {
		t.Error("empty run accepted")
	}
}

func TestDiffIdenticalRunsClean(t *testing.T) {
	rep := Diff(testRun(), testRun(), 0)
	if rep.Regressions != 0 || len(rep.Windows) != 0 || len(rep.FlowTotals) != 0 {
		t.Fatalf("identical runs: %+v", rep)
	}
	if rep.Aligned != 3 || rep.WindowsA != 3 || rep.WindowsB != 3 {
		t.Errorf("alignment: %+v", rep)
	}
}

func TestDiffFlagsDirectionAwareRegressions(t *testing.T) {
	base := testRun()
	cand := testRun()
	cand.Timeline.Summary[2].P99Ms = 500    // latency up: regression
	cand.Timeline.Summary[0].Requests = 3   // throughput down: regression
	cand.Timeline.Summary[1].Retries = 0    // failures down: improvement
	cand.Timeline.Flows[0].Bytes += 1 << 20 // flow total moves
	rep := Diff(base, cand, 0)
	if rep.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2: %+v", rep.Regressions, rep.Windows)
	}
	for _, wd := range rep.Windows {
		for _, d := range wd.Deltas {
			switch {
			case wd.Window == 2 && d.Metric == "p99_ms":
				if !d.Regression {
					t.Error("p99 increase not flagged")
				}
			case wd.Window == 0 && d.Metric == "requests":
				if !d.Regression {
					t.Error("request drop not flagged")
				}
			case wd.Window == 1 && d.Metric == "retries":
				if d.Regression {
					t.Error("retry improvement flagged as regression")
				}
			}
		}
	}
	if len(rep.FlowTotals) != 1 || rep.FlowTotals[0].Flow != "offload" ||
		rep.FlowTotals[0].Delta != 1<<20 {
		t.Errorf("flow totals = %+v", rep.FlowTotals)
	}
}

// TestDiffFloorsSuppressNoise: worse-direction movement below a metric's
// absolute floor must stay quiet even when it is large relatively.
func TestDiffFloorsSuppressNoise(t *testing.T) {
	base := testRun()
	cand := testRun()
	cand.Timeline.Summary[0].Requests-- // -1 request: under the floor of 2
	cand.Timeline.Summary[2].P99Ms += 0.5
	rep := Diff(base, cand, 0)
	if rep.Regressions != 0 {
		t.Fatalf("noise flagged: %+v", rep.Windows)
	}
	// The movements still appear as deltas, just unflagged.
	if len(rep.Windows) != 2 {
		t.Errorf("windows with deltas = %d, want 2", len(rep.Windows))
	}
}

func TestRenderersCoverRun(t *testing.T) {
	ex, err := Explain(testRun(), -1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExplainText(&buf, ex); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"window 1", "fallback", "init", "web#1", "conservation"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	base, cand := testRun(), testRun()
	cand.Timeline.Summary[2].P99Ms = 500
	if err := WriteDiffText(&buf, Diff(base, cand, 0)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("diff text missing regression flag:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteExemplarsText(&buf, testRun().Exemplars); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "web") {
		t.Errorf("exemplars text missing tenant:\n%s", buf.String())
	}
}
