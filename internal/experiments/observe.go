package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// ObserveCell is one fault-intensity cell of the ext-observe sweep: the
// full per-window timeline of a faulted rack run, so fault windows and
// their latency/recovery echo are visible side by side.
type ObserveCell struct {
	// Intensity scales the injected fault plan; 0 is fault-free.
	Intensity float64 `json:"intensity"`
	// FaultWindows is the number of windows in the generated plan.
	FaultWindows int `json:"fault_windows"`
	// Windows is the per-window rollup (see timeseries.SummaryRow).
	Windows []timeseries.SummaryRow `json:"windows"`
	// Dumps is how many flight-recorder dumps the triggers took.
	Dumps int `json:"dumps"`
	// DumpEvents is the total event count across the dumps.
	DumpEvents int `json:"dump_events"`
}

// ObserveOptions sizes the ext-observe sweep.
type ObserveOptions struct {
	// Intensities are the fault-plan intensities swept. Default {0, 1}.
	Intensities []float64
	// Duration of the generated trace. Default 10 m.
	Duration time.Duration
	// KeepAlive of idle containers. Default 8 m.
	KeepAlive time.Duration
	// Window is the rollup window. Default 30 s (coarse enough for a
	// readable table over a 10-minute run).
	Window time.Duration
	// Seed drives the workload; FaultSeed drives the fault plan.
	Seed, FaultSeed int64
}

// Observe replays the resilience rack, with the local-swap fallback on and a
// time-series recorder attached to every node, and renders one timeline per fault intensity. Each
// cell owns its engine and recorder, so rows are bit-identical at any
// -scenario-workers width (the CI determinism gate diffs widths 1 and 8),
// and the fault-free cell doubles as the zero-cost baseline the disabled-
// timeline benchmark guards.
func Observe(opt ObserveOptions) []ObserveCell {
	if len(opt.Intensities) == 0 {
		opt.Intensities = []float64{0, 1}
	}
	if opt.Duration <= 0 {
		opt.Duration = 10 * time.Minute
	}
	if opt.KeepAlive <= 0 {
		opt.KeepAlive = 8 * time.Minute
	}
	if opt.Window <= 0 {
		opt.Window = 30 * time.Second
	}
	run := func(intensity float64) ObserveCell {
		rec := timeseries.NewRecorder(timeseries.Config{Window: opt.Window})
		_, plan := faultRack(opt.Duration, opt.KeepAlive, opt.Seed, opt.FaultSeed,
			intensity, true, telemetry.Hub{Timeline: rec})

		cell := ObserveCell{
			Intensity:    intensity,
			FaultWindows: len(plan.Windows()),
			Windows:      timeseries.Summarize(rec),
			Dumps:        len(rec.Dumps()),
		}
		for _, d := range rec.Dumps() {
			cell.DumpEvents += len(d.Events)
		}
		return cell
	}

	cells := make([]ObserveCell, len(opt.Intensities))
	runGrid(len(cells), func(i int) { cells[i] = run(opt.Intensities[i]) })
	return cells
}

// PrintObserve renders one per-window timeline table per intensity.
func PrintObserve(w io.Writer, cells []ObserveCell) {
	fmt.Fprintln(w, "Extension: time-series telemetry — per-window timeline vs fault intensity")
	for _, cell := range cells {
		fmt.Fprintf(w, "\nintensity %.2f: %d fault windows, %d flight dumps (%d events)\n",
			cell.Intensity, cell.FaultWindows, cell.Dumps, cell.DumpEvents)
		table := make([][]string, len(cell.Windows))
		for i, r := range cell.Windows {
			table[i] = []string{
				fmt.Sprintf("%.0f", r.StartSec),
				fmt.Sprintf("%.1f", r.LocalMB),
				fmt.Sprintf("%.1f", r.PoolMB),
				fmt.Sprintf("%.2f", r.OffloadMB),
				fmt.Sprintf("%.2f", r.RecallMB),
				fmt.Sprintf("%d", r.Requests),
				fmt.Sprintf("%.2f", r.P99Ms),
				fmt.Sprintf("%d", r.Retries),
				fmt.Sprintf("%d", r.Timeouts),
				fmt.Sprintf("%d", r.FallbackPages),
				fmt.Sprintf("%d", r.Reinits),
				fmt.Sprintf("%d", r.FaultKinds),
			}
		}
		writeTable(w, []string{
			"t(s)", "local(MB)", "pool(MB)", "offl(MB)", "recall(MB)",
			"reqs", "p99(ms)", "retries", "timeouts", "fallback", "re-inits", "faults",
		}, table)
	}
}
