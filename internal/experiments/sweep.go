package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// SweepPoint is one labeled scenario in a parameter sweep.
type SweepPoint struct {
	// Label identifies the point (e.g. "keepalive=5m/faasmem").
	Label string
	// Scenario is the fully specified run.
	Scenario Scenario
}

// SweepResult pairs a point with its outcome.
type SweepResult struct {
	Label   string
	Outcome Outcome
}

// Sweep runs every point through RunScenarios and collects outcomes in input
// order, so process-default sinks fill the same way at any worker width.
// Sweeps are the building block for sensitivity studies beyond the paper's
// fixed configurations (keep-alive sweeps, bandwidth sweeps, timing sweeps).
func Sweep(points []SweepPoint) []SweepResult {
	scs := make([]Scenario, len(points))
	for i, p := range points {
		scs[i] = p.Scenario
	}
	out := make([]SweepResult, len(points))
	for i, o := range RunScenarios(scs) {
		out[i] = SweepResult{Label: points[i].Label, Outcome: o}
	}
	return out
}

// WriteSweepCSV emits the results as CSV with one row per point, ready for
// external plotting.
func WriteSweepCSV(w io.Writer, results []SweepResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"label", "policy", "requests", "cold_starts", "warm_starts", "semi_warm_starts",
		"avg_local_mb", "peak_local_mb", "avg_remote_mb",
		"p50_s", "p95_s", "p99_s",
		"fault_pages", "offloaded_mb", "recalled_mb", "offload_bw_mbps",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: sweep csv: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	d := func(v int) string { return strconv.Itoa(v) }
	for _, r := range results {
		o := r.Outcome
		row := []string{
			r.Label, string(o.Policy), d(o.Requests), d(o.ColdStarts), d(o.WarmStarts), d(o.SemiWarmStarts),
			f(o.AvgLocalMB), f(o.PeakLocalMB), f(o.AvgRemoteMB),
			f(o.P50), f(o.P95), f(o.P99),
			strconv.FormatInt(o.FaultPages, 10), f(o.OffloadedMB), f(o.RecalledMB), f(o.OffloadBWMBps),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: sweep csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: sweep csv: %w", err)
	}
	return nil
}
