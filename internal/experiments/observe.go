package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
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

// The ext-observe and ext-drilldown sweeps read the same faulted rack runs
// (Watch): a 10-minute trace, an 8-minute keep-alive and fault intensities 0
// and 1, rolled up in 30 s windows (coarse enough for a readable table over
// a 10-minute run).
const (
	watchDuration  = 10 * time.Minute
	watchKeepAlive = 8 * time.Minute
	watchWindow    = 30 * time.Second
)

var watchIntensities = []float64{0, 1}

// Watch replays the resilience rack once per fault intensity, with the
// local-swap fallback on and a time-series and a tail-exemplar recorder
// attached to every node, and derives both the ext-observe and the
// ext-drilldown cells from each run. seed drives both the workload and the
// fault plan. Each run owns its engine and recorders, so the cells are
// bit-identical at any -scenario-workers width (the CI determinism gate
// diffs widths 1 and 8), and the fault-free run doubles as the zero-cost
// baseline the disabled-timeline benchmark guards.
func Watch(seed int64) ([]ObserveCell, []DrilldownCell) {
	observe := make([]ObserveCell, len(watchIntensities))
	drill := make([]DrilldownCell, len(watchIntensities))
	runGrid(len(watchIntensities), func(i int) {
		intensity := watchIntensities[i]
		rec := timeseries.NewRecorder(timeseries.Config{Window: watchWindow})
		exm := exemplar.NewRecorder(exemplar.Config{Window: watchWindow})
		_, plan := faultRack(watchDuration, watchKeepAlive, seed,
			intensity, true, telemetry.Hub{Timeline: rec, Exemplars: exm})
		observe[i] = ObserveCell{
			Intensity:    intensity,
			FaultWindows: len(plan.Windows()),
			Windows:      timeseries.Summarize(rec),
			Dumps:        len(rec.Dumps()),
		}
		for _, d := range rec.Dumps() {
			observe[i].DumpEvents += len(d.Events)
		}
		drill[i] = drilldownCell(intensity, rec, exm)
	})
	return observe, drill
}

// watchMemo is the last Watch run, keyed by its seed and the process-default
// hub it recorded into, so the ext-observe and ext-drilldown entries of one
// registry pass share one run. Watch is deterministic, so a hit returns
// exactly what a fresh run would, and only the last seed is kept.
var watchMemo struct {
	sync.Mutex
	ok      bool
	seed    int64
	hub     telemetry.Hub
	observe []ObserveCell
	drill   []DrilldownCell
}

// watchCells returns Watch(seed), reusing the last run when it was at the
// same seed under the same default sinks.
func watchCells(seed int64) ([]ObserveCell, []DrilldownCell) {
	m := &watchMemo
	m.Lock()
	defer m.Unlock()
	if hub := telemetry.Default(); !m.ok || m.seed != seed || m.hub != hub {
		m.observe, m.drill = Watch(seed)
		m.ok, m.seed, m.hub = true, seed, hub
	}
	return m.observe, m.drill
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
