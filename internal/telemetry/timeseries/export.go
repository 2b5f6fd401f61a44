package timeseries

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// Row is one (series, dims, window) cell flattened for export, the
// machine-readable form behind `faasmem-stat timeline -format json` and the
// gateway's GET /timeline.
type Row struct {
	// Window is the window index (Start = Window · window size).
	Window int64 `json:"window"`
	// Start is the window's virtual start time.
	Start simtime.Time `json:"start"`
	// Name is the series name.
	Name string `json:"name"`
	// Node, Tenant, Class are the rollup dimensions (empty when not
	// applicable).
	Node   string `json:"node,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Kind is the series kind ("counter", "gauge", "sample").
	Kind string `json:"kind"`
	// Count is the number of events folded into the cell.
	Count int64 `json:"count"`
	// Sum is the summed deltas (counters) or samples.
	Sum int64 `json:"sum"`
	// Last is the most recent value (the gauge reading).
	Last int64 `json:"last"`
	// Min and Max bound the cell's values.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// P99 is the estimated 99th percentile for sample series (0 otherwise).
	P99 int64 `json:"p99,omitempty"`
}

// Rows flattens every cell, sorted by (Window, Name, Node, Tenant, Class)
// so output is deterministic regardless of map iteration order.
func (r *Recorder) Rows() []Row {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for k, s := range r.series {
		for win, p := range s.points {
			row := Row{
				Window: win,
				Start:  simtime.Time(win) * r.cfg.Window,
				Name:   k.name,
				Node:   k.dims.Node,
				Tenant: k.dims.Tenant,
				Class:  k.dims.Class,
				Kind:   s.kind.String(),
				Count:  p.count,
				Sum:    p.sum,
				Last:   p.last,
				Min:    p.min,
				Max:    p.max,
			}
			if s.kind == Sample {
				row.P99 = p.quantile(0.99)
			}
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Class < b.Class
	})
	return out
}

// SummaryRow is one window of the cross-dimension rollup: the headline
// occupancy / bandwidth / reliability / latency numbers, with fault-plan
// activity alongside so co-movement is visible in one table.
type SummaryRow struct {
	// Window is the window index.
	Window int64 `json:"window"`
	// StartSec is the window's virtual start in seconds.
	StartSec float64 `json:"start_sec"`
	// LocalMB and PoolMB are node-local and pool-occupancy gauges summed
	// across nodes, in MiB.
	LocalMB float64 `json:"local_mb"`
	PoolMB  float64 `json:"pool_mb"`
	// OffloadMB and RecallMB are link traffic during the window, in MiB.
	OffloadMB float64 `json:"offload_mb"`
	RecallMB  float64 `json:"recall_mb"`
	// Requests counts completed requests in the window.
	Requests int64 `json:"requests"`
	// P99Ms is the 99th-percentile request latency across all dims, in ms.
	P99Ms float64 `json:"p99_ms"`
	// Retries, Timeouts, FallbackPages, Reinits are recovery activity.
	Retries       int64 `json:"retries"`
	Timeouts      int64 `json:"timeouts"`
	FallbackPages int64 `json:"fallback_pages"`
	Reinits       int64 `json:"reinits"`
	// FaultKinds is the peak number of fault kinds in force.
	FaultKinds int64 `json:"fault_kinds"`
}

// Summarize aggregates every series across dimensions into one row per
// window, covering the contiguous range [first, last] window seen. Latency
// P99 merges the underlying bucket histograms, so it is the true
// cross-tenant estimate, not a max-of-maxes.
func Summarize(r *Recorder) []SummaryRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type agg struct {
		local, pool, offload, recall  int64
		requests, retries, timeouts   int64
		fallback, reinits, faultKinds int64
		latCount, latMax              int64
		latBuckets                    [nBuckets]int64
	}
	cells := make(map[int64]*agg)
	lo, hi := int64(1<<62), int64(-1<<62)
	cell := func(win int64) *agg {
		if win < lo {
			lo = win
		}
		if win > hi {
			hi = win
		}
		a := cells[win]
		if a == nil {
			a = &agg{}
			cells[win] = a
		}
		return a
	}
	for k, s := range r.series {
		for win, p := range s.points {
			a := cell(win)
			switch k.name {
			case SeriesNodeLocalBytes:
				a.local += p.last
			case SeriesPoolUsedBytes:
				a.pool += p.last
			case SeriesOffloadBytes:
				a.offload += p.sum
			case SeriesRecallBytes:
				a.recall += p.sum
			case SeriesRequests:
				a.requests += p.sum
			case SeriesFetchRetries:
				a.retries += p.sum
			case SeriesFetchTimeouts:
				a.timeouts += p.sum
			case SeriesFallbackPages:
				a.fallback += p.sum
			case SeriesColdReinits:
				a.reinits += p.sum
			case SeriesFaultActiveKinds:
				if p.max > a.faultKinds {
					a.faultKinds = p.max
				}
			case SeriesRequestLatency:
				a.latCount += p.count
				if p.max > a.latMax {
					a.latMax = p.max
				}
				if p.buckets != nil {
					for i, c := range p.buckets {
						a.latBuckets[i] += c
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil
	}
	const mb = 1 << 20
	out := make([]SummaryRow, 0, hi-lo+1)
	for win := lo; win <= hi; win++ {
		row := SummaryRow{
			Window:   win,
			StartSec: (simtime.Time(win) * r.cfg.Window).Seconds(),
		}
		if a := cells[win]; a != nil {
			row.LocalMB = float64(a.local) / mb
			row.PoolMB = float64(a.pool) / mb
			row.OffloadMB = float64(a.offload) / mb
			row.RecallMB = float64(a.recall) / mb
			row.Requests = a.requests
			row.Retries = a.retries
			row.Timeouts = a.timeouts
			row.FallbackPages = a.fallback
			row.Reinits = a.reinits
			row.FaultKinds = a.faultKinds
			if a.latCount > 0 {
				merged := point{count: a.latCount, max: a.latMax, buckets: &a.latBuckets}
				row.P99Ms = float64(merged.quantile(0.99)) / float64(time.Millisecond)
			}
		}
		out = append(out, row)
	}
	return out
}

// Snapshot is the full JSON form: configuration, flattened rows, the
// per-window summary, and the flight dumps.
type Snapshot struct {
	// WindowSec is the rollup window in seconds.
	WindowSec float64 `json:"window_sec"`
	// Rows are the flattened cells (see Rows).
	Rows []Row `json:"rows"`
	// Summary is the per-window cross-dimension rollup.
	Summary []SummaryRow `json:"summary"`
	// Flows is the page byte-flow ledger (see FlowRows).
	Flows []FlowRow `json:"flows,omitempty"`
	// FlowAudit is the ledger's conservation self-check, present whenever
	// flows were recorded.
	FlowAudit *FlowAudit `json:"flow_audit,omitempty"`
	// Dumps are the flight-recorder dumps.
	Dumps []Dump `json:"dumps"`
	// DumpsDropped counts triggers past the MaxDumps cap.
	DumpsDropped int `json:"dumps_dropped,omitempty"`
}

// TakeSnapshot assembles the exportable view of the recorder.
func TakeSnapshot(r *Recorder) Snapshot {
	snap := Snapshot{
		WindowSec:    r.Window().Seconds(),
		Rows:         r.Rows(),
		Summary:      Summarize(r),
		Dumps:        r.Dumps(),
		DumpsDropped: r.DumpsDropped(),
	}
	if flows := r.FlowRows(); len(flows) > 0 {
		snap.Flows = flows
		audit := AuditFlows(r)
		snap.FlowAudit = &audit
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func WriteJSON(w io.Writer, r *Recorder) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(TakeSnapshot(r))
}

// WriteText renders the per-window summary table plus a flight-dump digest,
// the shared text form behind faasmem-stat timeline, faasmem-sim -timeline,
// and the gateway's GET /timeline.
func WriteText(w io.Writer, r *Recorder) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "timeline: recording disabled")
		return err
	}
	rows := Summarize(r)
	if len(rows) == 0 {
		_, err := fmt.Fprintf(w, "timeline: no samples recorded (window %s)\n", r.Window())
		return err
	}
	if _, err := fmt.Fprintf(w, "timeline: %d windows of %s\n\n", len(rows), r.Window()); err != nil {
		return err
	}
	header := []string{
		"window", "t(s)", "local(MB)", "pool(MB)", "offl(MB)", "recall(MB)",
		"reqs", "p99(ms)", "retries", "timeouts", "fallback", "reinits", "faults",
	}
	cells := make([][]string, 0, len(rows))
	for _, row := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", row.Window),
			fmt.Sprintf("%.0f", row.StartSec),
			fmt.Sprintf("%.1f", row.LocalMB),
			fmt.Sprintf("%.1f", row.PoolMB),
			fmt.Sprintf("%.2f", row.OffloadMB),
			fmt.Sprintf("%.2f", row.RecallMB),
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%.2f", row.P99Ms),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.FallbackPages),
			fmt.Sprintf("%d", row.Reinits),
			fmt.Sprintf("%d", row.FaultKinds),
		})
	}
	if err := writeTable(w, header, cells); err != nil {
		return err
	}
	if err := writeFlowDigest(w, r); err != nil {
		return err
	}
	dumps := r.Dumps()
	if len(dumps) == 0 && r.DumpsDropped() == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nflight dumps: %d", len(dumps)); err != nil {
		return err
	}
	if d := r.DumpsDropped(); d > 0 {
		if _, err := fmt.Fprintf(w, " (+%d past cap)", d); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, d := range dumps {
		series := ""
		if d.Series != "" {
			series = " (" + d.Series + ")"
		}
		if _, err := fmt.Fprintf(w, "  dump %d: %-12s at %7.1fs window %d, %d events%s\n",
			i, d.Trigger, d.At.Seconds(), d.Window, len(d.Events), series); err != nil {
			return err
		}
	}
	return nil
}

// writeFlowDigest prints the page byte-flow ledger's compact text form: one
// per-kind total line plus the conservation audit's verdict. The full
// per-window matrix stays in the JSON snapshot (and behind faasmem-stat
// explain / the gateway's GET /flows), where its size is not a problem.
func writeFlowDigest(w io.Writer, r *Recorder) error {
	totals := r.FlowTotals()
	var any bool
	for _, t := range totals {
		if t != 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	const mb = 1 << 20
	parts := make([]string, 0, NumFlows)
	for k := FlowKind(0); k < NumFlows; k++ {
		if totals[k] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.2f MB", k, float64(totals[k])/mb))
	}
	if _, err := fmt.Fprintf(w, "\nflows: %s\n", strings.Join(parts, ", ")); err != nil {
		return err
	}
	audit := AuditFlows(r)
	switch {
	case audit.Merged:
		_, err := fmt.Fprintf(w, "flow audit: n/a (merged across %d runs; %d checkpoints)\n",
			audit.Runs, audit.Checks)
		return err
	case audit.Checks == 0:
		_, err := fmt.Fprintln(w, "flow audit: no occupancy checkpoints")
		return err
	case audit.OK:
		_, err := fmt.Fprintf(w, "flow audit: conservation OK over %d windows (%d checkpoints)\n",
			len(audit.Windows), audit.Checks)
		return err
	default:
		if _, err := fmt.Fprintf(w, "flow audit: %d of %d windows VIOLATE conservation\n",
			audit.Violations, len(audit.Windows)); err != nil {
			return err
		}
		for _, wa := range audit.Windows {
			if wa.OK {
				continue
			}
			if _, err := fmt.Fprintf(w, "  window %d: occupancy delta %d != net flow %d\n",
				wa.Window, wa.OccDelta, wa.FlowDelta); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeTable prints a fixed-width table with right-aligned columns,
// matching the experiment harness's rendering so timeline output sits
// naturally beside figure tables.
func writeTable(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) error {
		var b strings.Builder
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			b.WriteString(c)
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := line(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}
