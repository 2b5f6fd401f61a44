package timeseries

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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
	var out []SummaryRow
	r.eachSummary(func(row SummaryRow) { out = append(out, row) })
	return out
}

// eachSummary calls fn with Summarize's rows in window order. Each row is
// summed from its own window's cells as it is reached, so no per-window
// aggregate is kept, and a caller that renders each row as it comes keeps
// no rows either. r.mu must be held.
func (r *Recorder) eachSummary(fn func(SummaryRow)) {
	// lo is the first window with a sample (-1 while there is none); a
	// series' last cell always holds a sample, so hi-1 is the last one.
	lo, hi := -1, 0
	for i := range r.series {
		cells := r.series[i].cells
		hi = max(hi, len(cells))
		for win := range cells {
			if cells[win].count != 0 {
				if lo < 0 || win < lo {
					lo = win
				}
				break
			}
		}
	}
	if lo < 0 {
		return
	}
	const mb = 1 << 20
	for win := lo; win < hi; win++ {
		var local, pool, offload, recall, latCount, latMax int64
		// lat merges the window's latency buckets across dimensions.
		var lat hist.Buckets
		row := SummaryRow{
			Window:   int64(win),
			StartSec: (simtime.Time(win) * r.cfg.Window).Seconds(),
		}
		for i := range r.series {
			s := &r.series[i]
			if win >= len(s.cells) {
				continue
			}
			p := &s.cells[win]
			if s.name == SeriesRequestLatency && p.buckets != nil {
				lat.Merge(p.buckets)
			}
			if p.count == 0 {
				continue
			}
			switch s.name {
			case SeriesNodeLocalBytes:
				local += p.last
			case SeriesPoolUsedBytes:
				pool += p.last
			case SeriesOffloadBytes:
				offload += p.sum
			case SeriesRecallBytes:
				recall += p.sum
			case SeriesRequests:
				row.Requests += p.sum
			case SeriesFetchRetries:
				row.Retries += p.sum
			case SeriesFetchTimeouts:
				row.Timeouts += p.sum
			case SeriesFallbackPages:
				row.FallbackPages += p.sum
			case SeriesColdReinits:
				row.Reinits += p.sum
			case SeriesFaultActiveKinds:
				row.FaultKinds = max(row.FaultKinds, p.max)
			case SeriesRequestLatency:
				latCount += p.count
				latMax = max(latMax, p.max)
			}
		}
		row.LocalMB = float64(local) / mb
		row.PoolMB = float64(pool) / mb
		row.OffloadMB = float64(offload) / mb
		row.RecallMB = float64(recall) / mb
		if latCount > 0 {
			row.P99Ms = float64(lat.Quantile(0.99, latCount, latMax)) / float64(time.Millisecond)
		}
		fn(row)
	}
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
	_, err := w.Write(AppendText(nil, r))
	return err
}

// AppendText appends WriteText's rendering of r to dst. It keeps no rows:
// the summary table is rendered straight from the series cells, so a reader
// that reuses dst, like the gateway's GET /timeline, allocates next to
// nothing.
func AppendText(dst []byte, r *Recorder) []byte {
	if r == nil {
		return append(dst, "timeline: recording disabled\n"...)
	}
	totals, audit := r.FlowTotals(), AuditFlows(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	return appendText(dst, r.cfg.Window, r.eachSummary, totals, audit, r.dumps, r.dumpsDropped)
}

// appendText is AppendText over its parts: the rollup window, the summary
// rows (each calls its argument with every row, in order), the flow
// ledger's per-kind totals and audit, and the flight dumps with the count
// dropped past the cap.
func appendText(dst []byte, window time.Duration, each func(func(SummaryRow)), totals [NumFlows]int64, audit FlowAudit, dumps []Dump, dropped int) []byte {
	// dst is the table's only storage. Every cell is formatted once, each
	// followed by a NUL, past dst's end while the columns are sized; then
	// the text is laid out after those cells and moved down over them.
	var widths [len(summaryHeader)]int
	for col, h := range summaryHeader {
		widths[col] = len(h)
	}
	mark, rows := len(dst), 0
	each(func(row SummaryRow) {
		rows++
		for col := range widths {
			start := len(dst)
			dst = appendSummaryCell(dst, &row, col)
			widths[col] = max(widths[col], len(dst)-start)
			dst = append(dst, 0)
		}
	})
	if rows == 0 {
		return fmt.Appendf(dst, "timeline: no samples recorded (window %s)\n", window)
	}
	cells := len(dst)
	dst = fmt.Appendf(dst, "timeline: %d windows of %s\n\n", rows, window)
	for col, h := range summaryHeader {
		dst = appendTableCell(dst, col, widths[col], []byte(h))
	}
	for i, k := mark, 0; i < cells; k++ {
		end := i + bytes.IndexByte(dst[i:cells], 0)
		col := k % len(widths)
		dst = appendTableCell(dst, col, widths[col], dst[i:end])
		i = end + 1
	}
	dst = dst[:mark+copy(dst[mark:], dst[cells:])]
	dst = appendFlowDigest(dst, totals, audit)
	if len(dumps) == 0 && dropped == 0 {
		return dst
	}
	dst = fmt.Appendf(dst, "\nflight dumps: %d", len(dumps))
	if dropped > 0 {
		dst = fmt.Appendf(dst, " (+%d past cap)", dropped)
	}
	dst = append(dst, '\n')
	for i, d := range dumps {
		series := ""
		if d.Series != "" {
			series = " (" + d.Series + ")"
		}
		dst = fmt.Appendf(dst, "  dump %d: %-12s at %7.1fs window %d, %d events%s\n",
			i, d.Trigger, d.At.Seconds(), d.Window, len(d.Events), series)
	}
	return dst
}

// appendFlowDigest appends the page byte-flow ledger's compact text form:
// one per-kind total line plus the conservation audit's verdict. The full
// per-window matrix stays in the JSON snapshot (and behind faasmem-stat
// explain / the gateway's GET /flows), where its size is not a problem.
func appendFlowDigest(dst []byte, totals [NumFlows]int64, audit FlowAudit) []byte {
	const mb = 1 << 20
	sep := "\nflows: "
	for k := FlowKind(0); k < NumFlows; k++ {
		if totals[k] == 0 {
			continue
		}
		dst = append(append(append(dst, sep...), k.String()...), ' ')
		dst = append(strconv.AppendFloat(dst, float64(totals[k])/mb, 'f', 2, 64), " MB"...)
		sep = ", "
	}
	if sep != ", " {
		return dst
	}
	dst = append(dst, '\n')
	switch {
	case audit.Merged:
		return fmt.Appendf(dst, "flow audit: n/a (merged across %d runs; %d checkpoints)\n",
			audit.Runs, audit.Checks)
	case audit.Checks == 0:
		return append(dst, "flow audit: no occupancy checkpoints\n"...)
	case audit.OK:
		return fmt.Appendf(dst, "flow audit: conservation OK over %d windows (%d checkpoints)\n",
			len(audit.Windows), audit.Checks)
	}
	dst = fmt.Appendf(dst, "flow audit: %d of %d windows VIOLATE conservation\n",
		audit.Violations, len(audit.Windows))
	for _, wa := range audit.Windows {
		if !wa.OK {
			dst = fmt.Appendf(dst, "  window %d: occupancy delta %d != net flow %d\n",
				wa.Window, wa.OccDelta, wa.FlowDelta)
		}
	}
	return dst
}

// summaryHeader names the summary table's columns.
var summaryHeader = [...]string{
	"window", "t(s)", "local(MB)", "pool(MB)", "offl(MB)", "recall(MB)",
	"reqs", "p99(ms)", "retries", "timeouts", "fallback", "reinits", "faults",
}

// appendSummaryCell appends column col of row as the summary table prints
// it.
func appendSummaryCell(dst []byte, row *SummaryRow, col int) []byte {
	switch col {
	case 0:
		return strconv.AppendInt(dst, row.Window, 10)
	case 1:
		return strconv.AppendFloat(dst, row.StartSec, 'f', 0, 64)
	case 2:
		return strconv.AppendFloat(dst, row.LocalMB, 'f', 1, 64)
	case 3:
		return strconv.AppendFloat(dst, row.PoolMB, 'f', 1, 64)
	case 4:
		return strconv.AppendFloat(dst, row.OffloadMB, 'f', 2, 64)
	case 5:
		return strconv.AppendFloat(dst, row.RecallMB, 'f', 2, 64)
	case 6:
		return strconv.AppendInt(dst, row.Requests, 10)
	case 7:
		return strconv.AppendFloat(dst, row.P99Ms, 'f', 2, 64)
	case 8:
		return strconv.AppendInt(dst, row.Retries, 10)
	case 9:
		return strconv.AppendInt(dst, row.Timeouts, 10)
	case 10:
		return strconv.AppendInt(dst, row.FallbackPages, 10)
	case 11:
		return strconv.AppendInt(dst, row.Reinits, 10)
	default:
		return strconv.AppendInt(dst, row.FaultKinds, 10)
	}
}

// appendTableCell appends cell c of the summary table's column col, right
// aligned to width: columns sit two spaces apart, matching the experiment
// harness's rendering so timeline output sits naturally beside figure
// tables, and the last one ends the line.
func appendTableCell(dst []byte, col, width int, c []byte) []byte {
	if col > 0 {
		dst = append(dst, "  "...)
	}
	for n := len(c); n < width; n++ {
		dst = append(dst, ' ')
	}
	dst = append(dst, c...)
	if col == len(summaryHeader)-1 {
		dst = append(dst, '\n')
	}
	return dst
}
