package experiments

import (
	"fmt"
	"io"

	"github.com/faasmem/faasmem/internal/drilldown"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// DrilldownCell is one fault-intensity cell of the ext-drilldown sweep: the
// rack run's latency spike dereferenced all the way down — spike window →
// worst exemplar → dominant critical-path phase — plus the byte-flow
// ledger's conservation verdict for the run.
type DrilldownCell struct {
	// Intensity scales the injected fault plan; 0 is fault-free.
	Intensity float64 `json:"intensity"`
	// SpikeWindow is the worst-P99 window; SpikeStartSec its virtual start
	// and SpikeP99Ms its latency.
	SpikeWindow   int64   `json:"spike_window"`
	SpikeStartSec float64 `json:"spike_start_sec"`
	SpikeP99Ms    float64 `json:"spike_p99_ms"`
	// WorstLatencyMs, WorstFunction, WorstKind identify the spike window's
	// single worst retained request; DominantPhase is the largest phase on
	// its critical path — the phase the spike is attributed to.
	WorstLatencyMs float64 `json:"worst_latency_ms"`
	WorstFunction  string  `json:"worst_function"`
	WorstKind      string  `json:"worst_kind"`
	DominantPhase  string  `json:"dominant_phase"`
	// ExemplarCells counts retained (window, node, tenant) cells; FlowRows
	// the ledger's populated cells.
	ExemplarCells int `json:"exemplar_cells"`
	FlowRows      int `json:"flow_rows"`
	// AuditOK is the ledger's conservation self-check; AuditChecks how many
	// occupancy checkpoints it covered.
	AuditOK     bool  `json:"audit_ok"`
	AuditChecks int64 `json:"audit_checks"`
	// Explanation is the full drill-down of the spike window.
	Explanation *drilldown.Explanation `json:"explanation,omitempty"`
}

// drilldownCell drills one Watch run's worst window down to flows,
// exemplars, and phase attribution. The timeline and exemplar recorders
// share one window, so their cells align by index.
func drilldownCell(intensity float64, rec *timeseries.Recorder, exm *exemplar.Recorder) DrilldownCell {
	cells := exm.Cells()
	cell := DrilldownCell{
		Intensity:     intensity,
		ExemplarCells: len(cells),
		FlowRows:      len(rec.FlowRows()),
	}
	audit := timeseries.AuditFlows(rec)
	cell.AuditOK = audit.OK
	cell.AuditChecks = audit.Checks
	ex, err := drilldown.Explain(drilldown.Run{
		Timeline:  timeseries.TakeSnapshot(rec),
		Exemplars: cells,
	}, -1)
	if err != nil {
		return cell
	}
	cell.Explanation = ex
	cell.SpikeWindow = ex.Window
	cell.SpikeStartSec = ex.StartSec
	if ex.Summary != nil {
		cell.SpikeP99Ms = ex.Summary.P99Ms
	}
	for _, bd := range ex.Exemplars {
		for _, top := range bd.Top {
			if top.LatencyMs > cell.WorstLatencyMs {
				cell.WorstLatencyMs = top.LatencyMs
				cell.WorstFunction = top.Function
				cell.WorstKind = top.Kind
				cell.DominantPhase = top.Dominant
			}
		}
	}
	return cell
}

// PrintDrilldown renders the spike → exemplar → phase attribution chain, one
// row per intensity.
func PrintDrilldown(w io.Writer, cells []DrilldownCell) {
	fmt.Fprintln(w, "Extension: exemplar drill-down — worst window to dominant phase per fault intensity")
	fmt.Fprintln(w)
	table := make([][]string, len(cells))
	for i, c := range cells {
		audit := "OK"
		if !c.AuditOK {
			audit = "VIOLATED"
		}
		table[i] = []string{
			fmt.Sprintf("%.2f", c.Intensity),
			fmt.Sprintf("%.0f", c.SpikeStartSec),
			fmt.Sprintf("%.2f", c.SpikeP99Ms),
			fmt.Sprintf("%.2f", c.WorstLatencyMs),
			c.WorstFunction,
			c.WorstKind,
			c.DominantPhase,
			fmt.Sprintf("%d", c.ExemplarCells),
			fmt.Sprintf("%d", c.FlowRows),
			fmt.Sprintf("%s/%d", audit, c.AuditChecks),
		}
	}
	writeTable(w, []string{
		"intensity", "spike t(s)", "p99(ms)", "worst(ms)", "function", "start",
		"dominant", "cells", "flows", "audit",
	}, table)
	for _, c := range cells {
		ex := c.Explanation
		if ex == nil || len(ex.Exemplars) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nintensity %.2f, window %d:\n", c.Intensity, ex.Window)
		for _, bd := range ex.Exemplars {
			for i, top := range bd.Top {
				if i > 0 {
					break // worst per cell keeps the digest short
				}
				phases := ""
				for j, p := range top.Phases {
					if j > 0 {
						phases += ", "
					}
					phases += fmt.Sprintf("%s %.1fms", p.Phase, p.Ms)
				}
				fmt.Fprintf(w, "  %s: %.2fms %s  [%s]\n",
					bd.Tenant, top.LatencyMs, top.Kind, phases)
			}
		}
	}
}
