// Package drilldown connects the repo's three telemetry layers — per-window
// timeseries rollups, the page byte-flow ledger, and tail exemplars — into
// run-level analysis: Explain dereferences one window's spike to the flows
// and concrete worst requests behind it, and Diff aligns two runs' windows
// into a direction-aware regression report. Both operate on run files (the
// JSON written by `faasmem-stat timeline -format json`, with or without the
// exemplar envelope), so analysis is decoupled from simulation.
package drilldown

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// Run is one captured run: the timeline snapshot plus the exemplar cells
// retained alongside it. This is the on-disk envelope `faasmem-stat timeline
// -exemplars -format json` writes.
type Run struct {
	Timeline  timeseries.Snapshot `json:"timeline"`
	Exemplars []exemplar.Cell     `json:"exemplars,omitempty"`
}

// ReadRun loads a run file. It is lenient about shape: both the
// {timeline, exemplars} envelope and a bare timeline snapshot (the output
// of `faasmem-stat timeline -format json` without -exemplars, or the
// gateway's GET /timeline) are accepted — a bare snapshot simply has no
// exemplars attached.
func ReadRun(path string) (Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Run{}, err
	}
	return ParseRun(data)
}

// ParseRun is ReadRun on bytes already in hand. It rejects an exemplar
// whose span tree holds an out-of-range phase or start kind, so rendering an
// accepted run cannot index past a phase table.
func ParseRun(data []byte) (Run, error) {
	var run Run
	if err := json.Unmarshal(data, &run); err == nil && runPopulated(run) {
		for _, c := range run.Exemplars {
			for _, ex := range c.Top {
				if err := ex.Invocation.Validate(); err != nil {
					return Run{}, fmt.Errorf("drilldown: exemplar: %w", err)
				}
			}
			if c.Typical != nil {
				if err := c.Typical.Invocation.Validate(); err != nil {
					return Run{}, fmt.Errorf("drilldown: typical exemplar: %w", err)
				}
			}
		}
		return run, nil
	}
	var snap timeseries.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Run{}, fmt.Errorf("drilldown: not a run file (neither envelope nor timeline snapshot): %w", err)
	}
	if len(snap.Rows) == 0 && len(snap.Summary) == 0 {
		return Run{}, fmt.Errorf("drilldown: run file holds no timeline windows")
	}
	return Run{Timeline: snap}, nil
}

func runPopulated(run Run) bool {
	return len(run.Timeline.Rows) > 0 || len(run.Timeline.Summary) > 0 ||
		len(run.Exemplars) > 0
}

// PhaseShare is one phase's share of an exemplar's critical path.
type PhaseShare struct {
	Phase string  `json:"phase"`
	Ms    float64 `json:"ms"`
}

// ExemplarPath is one retained request flattened for explanation: identity,
// end-to-end latency, and the critical-path phase decomposition (nonzero
// phases, largest first).
type ExemplarPath struct {
	AtSec     float64      `json:"at_sec"`
	LatencyMs float64      `json:"latency_ms"`
	Container string       `json:"container"`
	Function  string       `json:"function"`
	Kind      string       `json:"kind"`
	Phases    []PhaseShare `json:"phases,omitempty"`
	// Dominant is the largest non-request phase.
	Dominant string `json:"dominant,omitempty"`
}

// ExemplarBreakdown is one (node, tenant) cell's exemplars with critical
// paths attached.
type ExemplarBreakdown struct {
	Node    string         `json:"node,omitempty"`
	Tenant  string         `json:"tenant,omitempty"`
	Count   int64          `json:"count"`
	Top     []ExemplarPath `json:"top"`
	Typical *ExemplarPath  `json:"typical,omitempty"`
}

// Explanation is Explain's result: one window's summary movement, its flow
// ledger slice, and the exemplar critical paths that realize the tail.
type Explanation struct {
	// Window is the explained window index; StartSec its virtual start.
	Window   int64   `json:"window"`
	StartSec float64 `json:"start_sec"`
	// AutoPicked is true when the window was chosen as the worst-P99 window
	// rather than requested explicitly.
	AutoPicked bool `json:"auto_picked,omitempty"`
	// Summary and PrevSummary are the window's rollup row and its
	// predecessor (nil at the first window), for delta context.
	Summary     *timeseries.SummaryRow `json:"summary,omitempty"`
	PrevSummary *timeseries.SummaryRow `json:"prev_summary,omitempty"`
	// Flows is the byte-flow ledger restricted to the window.
	Flows []timeseries.FlowRow `json:"flows,omitempty"`
	// FlowAudit is the whole run's conservation verdict.
	FlowAudit *timeseries.FlowAudit `json:"flow_audit,omitempty"`
	// Exemplars are the window's retained cells with critical paths.
	Exemplars []ExemplarBreakdown `json:"exemplars,omitempty"`
}

// Explain builds the drill-down for one window of run. window == -1 picks
// the worst window automatically: highest P99, ties to the earlier window
// (and to the busiest window when no latency was recorded at all).
func Explain(run Run, window int64) (*Explanation, error) {
	summary := run.Timeline.Summary
	if len(summary) == 0 {
		return nil, fmt.Errorf("drilldown: run has no summary windows to explain")
	}
	auto := window == -1
	if auto {
		window = pickWorst(summary)
	}
	ex := &Explanation{Window: window, AutoPicked: auto}
	for i := range summary {
		if summary[i].Window == window {
			ex.Summary = &summary[i]
			ex.StartSec = summary[i].StartSec
			if i > 0 {
				ex.PrevSummary = &summary[i-1]
			}
		}
	}
	if ex.Summary == nil {
		return nil, fmt.Errorf("drilldown: window %d not in run (windows %d..%d)",
			window, summary[0].Window, summary[len(summary)-1].Window)
	}
	for _, f := range run.Timeline.Flows {
		if f.Window == window {
			ex.Flows = append(ex.Flows, f)
		}
	}
	ex.FlowAudit = run.Timeline.FlowAudit
	for _, c := range run.Exemplars {
		if c.Window != window {
			continue
		}
		bd := ExemplarBreakdown{Node: c.Node, Tenant: c.Tenant, Count: c.Count}
		for _, e := range c.Top {
			bd.Top = append(bd.Top, flattenExemplar(e))
		}
		if c.Typical != nil {
			t := flattenExemplar(*c.Typical)
			bd.Typical = &t
		}
		ex.Exemplars = append(ex.Exemplars, bd)
	}
	return ex, nil
}

// pickWorst selects the window with the highest P99 latency, falling back
// to the busiest window when no latency samples were rolled up.
func pickWorst(summary []timeseries.SummaryRow) int64 {
	best := summary[0].Window
	bestP99, bestReqs := summary[0].P99Ms, summary[0].Requests
	anyLatency := bestP99 > 0
	for _, row := range summary[1:] {
		if row.P99Ms > 0 {
			anyLatency = true
		}
		if row.P99Ms > bestP99 {
			best, bestP99, bestReqs = row.Window, row.P99Ms, row.Requests
		}
	}
	if anyLatency {
		return best
	}
	for _, row := range summary[1:] {
		if row.Requests > bestReqs {
			best, bestReqs = row.Window, row.Requests
		}
	}
	return best
}

// flattenExemplar turns one retained request into its explanation form,
// attaching the span tree's critical-path phase decomposition.
func flattenExemplar(e exemplar.Exemplar) ExemplarPath {
	p := ExemplarPath{
		AtSec:     e.At.Seconds(),
		LatencyMs: float64(e.Latency) / float64(time.Millisecond),
		Container: e.Invocation.Container,
		Function:  e.Invocation.Function,
		Kind:      e.Invocation.Kind.String(),
	}
	phases := span.CriticalPath(e.Invocation)
	var dominant span.Phase
	var dominantDur time.Duration
	for ph := span.PhaseOther; ph < span.NumPhases; ph++ {
		d := phases[ph]
		if d <= 0 {
			continue
		}
		p.Phases = append(p.Phases, PhaseShare{
			Phase: ph.String(), Ms: float64(d) / float64(time.Millisecond),
		})
		if ph != span.PhaseRequest && d > dominantDur {
			dominant, dominantDur = ph, d
		}
	}
	// Largest share first; equal shares keep causal phase order (stable).
	for i := 1; i < len(p.Phases); i++ {
		for j := i; j > 0 && p.Phases[j].Ms > p.Phases[j-1].Ms; j-- {
			p.Phases[j], p.Phases[j-1] = p.Phases[j-1], p.Phases[j]
		}
	}
	if dominantDur > 0 {
		p.Dominant = dominant.String()
	}
	return p
}
