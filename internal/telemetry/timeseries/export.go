package timeseries

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/hist"
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
// so output does not depend on the order series were resolved in.
func (r *Recorder) Rows() []Row {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for i := range r.series {
		s := &r.series[i]
		for win := range s.cells {
			p := &s.cells[win]
			if p.count == 0 {
				continue
			}
			row := Row{
				Window: int64(win),
				Start:  simtime.Time(win) * r.cfg.Window,
				Name:   s.name,
				Node:   s.dims.Node,
				Tenant: s.dims.Tenant,
				Class:  s.dims.Class,
				Kind:   s.kind.String(),
				Count:  p.count,
				Sum:    p.sum,
				Last:   p.last,
				Min:    p.min,
				Max:    p.max,
			}
			if s.kind == Sample {
				row.P99 = p.buckets.Quantile(0.99, p.count, p.max)
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

// Buckets returns the named series' histogram merged across every
// dimension and window: the distribution the registry's histogram of the
// same samples holds.
func (r *Recorder) Buckets(name string) (b hist.Buckets) {
	if r == nil {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.series {
		s := &r.series[i]
		if s.name != name {
			continue
		}
		for win := range s.cells {
			if p := &s.cells[win]; p.buckets != nil {
				b.Merge(p.buckets)
			}
		}
	}
	return b
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
	}
	// aggs is indexed by window, like the series cells it sums; lo is the
	// first window with a sample (-1 while there is none).
	var n int
	for i := range r.series {
		n = max(n, len(r.series[i].cells))
	}
	aggs := make([]agg, n)
	lo := -1
	// lat holds the latency series, whose buckets are merged per window
	// only where the window has latency samples.
	var lat []*seriesData
	for i := range r.series {
		s := &r.series[i]
		for win := range s.cells {
			p := &s.cells[win]
			if p.count == 0 {
				continue
			}
			if lo < 0 || win < lo {
				lo = win
			}
			a := &aggs[win]
			switch s.name {
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
			}
		}
		if s.name == SeriesRequestLatency {
			lat = append(lat, s)
		}
	}
	if lo < 0 {
		return nil
	}
	const mb = 1 << 20
	// A series' last cell always holds a sample, so the last window of aggs
	// is the last window seen.
	out := make([]SummaryRow, 0, len(aggs)-lo)
	for win := lo; win < len(aggs); win++ {
		a := &aggs[win]
		row := SummaryRow{
			Window:        int64(win),
			StartSec:      (simtime.Time(win) * r.cfg.Window).Seconds(),
			LocalMB:       float64(a.local) / mb,
			PoolMB:        float64(a.pool) / mb,
			OffloadMB:     float64(a.offload) / mb,
			RecallMB:      float64(a.recall) / mb,
			Requests:      a.requests,
			Retries:       a.retries,
			Timeouts:      a.timeouts,
			FallbackPages: a.fallback,
			Reinits:       a.reinits,
			FaultKinds:    a.faultKinds,
		}
		if a.latCount > 0 {
			var b hist.Buckets
			for _, s := range lat {
				if win < len(s.cells) && s.cells[win].buckets != nil {
					b.Merge(s.cells[win].buckets)
				}
			}
			row.P99Ms = float64(b.Quantile(0.99, a.latCount, a.latMax)) / float64(time.Millisecond)
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
	// DumpsDropped counts triggers past the maxDumps cap.
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
	return writeText(w, r.Window(), Summarize(r), r.FlowTotals(), AuditFlows(r), r.Dumps(), r.DumpsDropped())
}

// writeText is WriteText over its parts: the rollup window, the summary
// rows, the flow ledger's per-kind totals and audit, and the flight dumps
// with the count dropped past the cap.
func writeText(w io.Writer, window time.Duration, rows []SummaryRow, totals [NumFlows]int64, audit FlowAudit, dumps []Dump, dropped int) error {
	if len(rows) == 0 {
		_, err := fmt.Fprintf(w, "timeline: no samples recorded (window %s)\n", window)
		return err
	}
	if _, err := fmt.Fprintf(w, "timeline: %d windows of %s\n\n", len(rows), window); err != nil {
		return err
	}
	if _, err := w.Write(summaryTable(rows)); err != nil {
		return err
	}
	if err := writeFlowDigest(w, totals, audit); err != nil {
		return err
	}
	if len(dumps) == 0 && dropped == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nflight dumps: %d", len(dumps)); err != nil {
		return err
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, " (+%d past cap)", dropped); err != nil {
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
func writeFlowDigest(w io.Writer, totals [NumFlows]int64, audit FlowAudit) error {
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

// summaryHeader names the summary table's columns.
var summaryHeader = [...]string{
	"window", "t(s)", "local(MB)", "pool(MB)", "offl(MB)", "recall(MB)",
	"reqs", "p99(ms)", "retries", "timeouts", "fallback", "reinits", "faults",
}

// summaryTable renders the summary rows as a fixed-width table with
// right-aligned columns two spaces apart, matching the experiment harness's
// rendering so timeline output sits naturally beside figure tables. A
// service-lifetime timeline is re-rendered on every read, so the cells are
// appended into one buffer rather than formatted into a string each.
func summaryTable(rows []SummaryRow) []byte {
	const cols = len(summaryHeader)
	var widths [cols]int
	for col, h := range summaryHeader {
		widths[col] = len(h)
	}
	// Cell k is cells[ends[k-1]:ends[k]]; cell takes cells with one more
	// cell appended.
	cells := make([]byte, 0, 64*len(rows))
	ends := make([]int, 0, cols*len(rows))
	cell := func(b []byte) {
		col := len(ends) % cols
		widths[col] = max(widths[col], len(b)-len(cells))
		cells = b
		ends = append(ends, len(cells))
	}
	for _, r := range rows {
		cell(strconv.AppendInt(cells, r.Window, 10))
		cell(strconv.AppendFloat(cells, r.StartSec, 'f', 0, 64))
		cell(strconv.AppendFloat(cells, r.LocalMB, 'f', 1, 64))
		cell(strconv.AppendFloat(cells, r.PoolMB, 'f', 1, 64))
		cell(strconv.AppendFloat(cells, r.OffloadMB, 'f', 2, 64))
		cell(strconv.AppendFloat(cells, r.RecallMB, 'f', 2, 64))
		cell(strconv.AppendInt(cells, r.Requests, 10))
		cell(strconv.AppendFloat(cells, r.P99Ms, 'f', 2, 64))
		cell(strconv.AppendInt(cells, r.Retries, 10))
		cell(strconv.AppendInt(cells, r.Timeouts, 10))
		cell(strconv.AppendInt(cells, r.FallbackPages, 10))
		cell(strconv.AppendInt(cells, r.Reinits, 10))
		cell(strconv.AppendInt(cells, r.FaultKinds, 10))
	}

	line := 2*cols - 1
	for _, w := range widths {
		line += w
	}
	out := make([]byte, 0, line*(len(rows)+1))
	put := func(col int, c []byte) {
		if col > 0 {
			out = append(out, "  "...)
		}
		for n := len(c); n < widths[col]; n++ {
			out = append(out, ' ')
		}
		out = append(out, c...)
		if col == cols-1 {
			out = append(out, '\n')
		}
	}
	for col, h := range summaryHeader {
		put(col, []byte(h))
	}
	start := 0
	for k, stop := range ends {
		put(k%cols, cells[start:stop])
		start = stop
	}
	return out
}
