package timeseries

import (
	"cmp"
	"slices"

	"github.com/faasmem/faasmem/internal/simtime"
)

// The page byte-flow ledger tracks how bytes move between page states —
// local → offloaded → compressed → spilled → recalled → fallback-read →
// discarded — as a per-window flow matrix keyed by node/tenant/page-class,
// with a built-in conservation audit: every pool-occupancy mutation records
// the flow that caused it plus an occupancy checkpoint, so the recorder can
// verify per window that inflow − outflow equals the occupancy delta. A
// missing hook, a mis-clamped byte count, or a mutation that bypasses the
// ledger shows up as an audit violation instead of silently skewing the
// numbers the paper's headline claims rest on.

// FlowKind names one transition in the page-state flow matrix.
type FlowKind uint8

// The flow kinds. Direction is relative to pool occupancy: offload flows
// into the pool, recall/fault/fallback/discard flow out, and compress/spill
// move bytes between pool tiers without changing occupancy.
const (
	// FlowOffload moves cold local bytes into the pool.
	FlowOffload FlowKind = iota
	// FlowRecall brings bytes back ahead of demand (planned recall).
	FlowRecall
	// FlowFault brings bytes back on a demand page fault.
	FlowFault
	// FlowFallback releases pool bytes whose content was served from the
	// local swap copy after a failed remote fetch.
	FlowFallback
	// FlowDiscard drops a recycled container's pool bytes.
	FlowDiscard
	// FlowCompress moves pool bytes into the compressed tier (intra-pool).
	FlowCompress
	// FlowSpill moves pool bytes into the spill tier (intra-pool).
	FlowSpill
	// FlowShareRead copies shared-region bytes to a mapping consumer without
	// releasing the pool's resident copy — pool occupancy is unchanged, so
	// the flow is direction-0 like the intra-pool tier moves.
	FlowShareRead
	// FlowMerge records pages admitted onto a merge master wider than their
	// own function: the logical bytes land in the pool but the widened
	// master already stores them, so occupancy is unchanged (direction 0 —
	// the occupancy effect of the admission itself is the accompanying
	// FlowOffload).
	FlowMerge
	// FlowUnmerge records a copy-on-write break privatizing pages out of a
	// merge master: bytes move between a shared and a private copy inside
	// the pool, occupancy unchanged (direction 0).
	FlowUnmerge
	// NumFlows is the number of flow kinds.
	NumFlows
)

var flowNames = [NumFlows]string{
	FlowOffload:   "offload",
	FlowRecall:    "recall",
	FlowFault:     "fault",
	FlowFallback:  "fallback",
	FlowDiscard:   "discard",
	FlowCompress:  "compress",
	FlowSpill:     "spill",
	FlowShareRead: "share-read",
	FlowMerge:     "merge",
	FlowUnmerge:   "unmerge",
}

// String names the flow kind.
func (f FlowKind) String() string {
	if int(f) < len(flowNames) {
		return flowNames[f]
	}
	return "unknown"
}

var flowDirections = [NumFlows]int{
	FlowOffload:   +1,
	FlowRecall:    -1,
	FlowFault:     -1,
	FlowFallback:  -1,
	FlowDiscard:   -1,
	FlowCompress:  0,
	FlowSpill:     0,
	FlowShareRead: 0,
	FlowMerge:     0,
	FlowUnmerge:   0,
}

// Direction is the flow's sign on pool occupancy: +1 inflow, -1 outflow,
// 0 intra-pool tier movement.
func (f FlowKind) Direction() int {
	if int(f) < len(flowDirections) {
		return flowDirections[f]
	}
	return 0
}

// flowKey identifies one flow series; comparable, so the hot-path lookup
// allocates nothing.
type flowKey struct {
	kind FlowKind
	dims Dims
}

// flowSeries is one flow key's bytes, indexed by absolute window like a
// series' cells. A zero cell is a window the key moved nothing in: AddFlow
// drops zero counts, and no caller passes a negative one.
type flowSeries struct {
	key   flowKey
	cells []int64
}

// occWindow holds one window's occupancy checkpoints: the first and last
// (occupancy, cumulative-net-flow) pair seen in the window. Conservation
// inside the window is lastOcc-firstOcc == lastNet-firstNet; across adjacent
// checkpointed windows it is firstOcc(w)-lastOcc(prev) ==
// firstNet(w)-lastNet(prev). A window with no checks holds no checkpoint.
type occWindow struct {
	firstOcc, firstNet int64
	lastOcc, lastNet   int64
	checks             int64
}

// AddFlow accumulates bytes into the flow ledger for the window containing
// at. Call it at the instrumentation site that mutates pool occupancy, with
// the same (clamped) byte count the mutation applied, then checkpoint with
// FlowOccupancy; the audit verifies the two agree per window. bytes is
// never negative; a zero count is dropped. No-op on nil.
func (r *Recorder) AddFlow(at simtime.Time, kind FlowKind, d Dims, bytes int64) {
	if r == nil || bytes == 0 {
		return
	}
	r.mu.Lock()
	r.crossTriggers(at)
	k := flowKey{kind: kind, dims: d}
	i, ok := r.flowIDs[k]
	if !ok {
		i = len(r.flows)
		r.flows = append(r.flows, flowSeries{key: k})
		r.flowIDs[k] = i
	}
	s := &r.flows[i]
	win := r.windowOf(at)
	s.cells = reach(s.cells, win)
	s.cells[win] += bytes
	r.flowNet += int64(kind.Direction()) * bytes
	r.mu.Unlock()
}

// FlowOccupancy checkpoints the pool occupancy after a mutation. The audit
// compares occupancy deltas between checkpoints against the net flow
// recorded between them. No-op on nil.
func (r *Recorder) FlowOccupancy(at simtime.Time, occ int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.flowRuns == 0 {
		r.flowRuns = 1
	}
	win := r.windowOf(at)
	r.occ = reach(r.occ, win)
	w := &r.occ[win]
	if w.checks == 0 {
		w.firstOcc, w.firstNet = occ, r.flowNet
	}
	w.lastOcc = occ
	w.lastNet = r.flowNet
	w.checks++
	r.mu.Unlock()
}

// FlowRow is one (flow, dims, window) ledger cell flattened for export.
type FlowRow struct {
	// Window is the window index (Start = Window · window size).
	Window int64 `json:"window"`
	// Start is the window's virtual start time.
	Start simtime.Time `json:"start"`
	// Flow names the transition ("offload", "recall", ...).
	Flow string `json:"flow"`
	// Direction is the flow's sign on pool occupancy (+1, -1, 0).
	Direction int `json:"direction"`
	// Node, Tenant, Class are the ledger dimensions (empty when not
	// applicable).
	Node   string `json:"node,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Bytes moved in the window.
	Bytes int64 `json:"bytes"`
}

// FlowRows flattens the ledger, sorted by (Window, Flow kind, Node, Tenant,
// Class): windows ascend, and within one the keys read in page-lifecycle
// order.
func (r *Recorder) FlowRows() []FlowRow { return r.AppendFlowRows(nil) }

// AppendFlowRows appends FlowRows' rows to dst, so a reader that reuses dst,
// like the gateway's GET /flows, allocates no rows.
func (r *Recorder) AppendFlowRows(dst []FlowRow) []FlowRow {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows, wins int
	for i := range r.flows {
		cells := r.flows[i].cells
		wins = max(wins, len(cells))
		for _, bytes := range cells {
			if bytes != 0 {
				rows++
			}
		}
	}
	if rows == 0 {
		return dst
	}
	dst = slices.Grow(dst, rows)
	keys := make([]*flowSeries, len(r.flows))
	for i := range r.flows {
		keys[i] = &r.flows[i]
	}
	slices.SortFunc(keys, func(a, b *flowSeries) int {
		return cmp.Or(
			cmp.Compare(a.key.kind, b.key.kind),
			cmp.Compare(a.key.dims.Node, b.key.dims.Node),
			cmp.Compare(a.key.dims.Tenant, b.key.dims.Tenant),
			cmp.Compare(a.key.dims.Class, b.key.dims.Class),
		)
	})
	for win := 0; win < wins; win++ {
		for _, s := range keys {
			if win >= len(s.cells) || s.cells[win] == 0 {
				continue
			}
			dst = append(dst, FlowRow{
				Window:    int64(win),
				Start:     simtime.Time(win) * r.cfg.Window,
				Flow:      s.key.kind.String(),
				Direction: s.key.kind.Direction(),
				Node:      s.key.dims.Node,
				Tenant:    s.key.dims.Tenant,
				Class:     s.key.dims.Class,
				Bytes:     s.cells[win],
			})
		}
	}
	return dst
}

// FlowWindowAudit is one window's conservation arithmetic: the occupancy
// delta between the window's first and last checkpoints (plus the carry from
// the previous checkpointed window) against the net flow recorded over the
// same span.
type FlowWindowAudit struct {
	// Window is the window index.
	Window int64 `json:"window"`
	// OccDelta is the occupancy change covered by this window's
	// checkpoints, including the carry since the previous checkpointed
	// window.
	OccDelta int64 `json:"occ_delta"`
	// FlowDelta is the net signed flow (inflow − outflow) over the same
	// span.
	FlowDelta int64 `json:"flow_delta"`
	// Checks counts occupancy checkpoints in the window.
	Checks int64 `json:"checks"`
	// OK reports OccDelta == FlowDelta.
	OK bool `json:"ok"`
}

// FlowAudit is the ledger's self-check: per-window conservation of
// inflow − outflow against occupancy deltas.
type FlowAudit struct {
	// Runs counts independent simulation runs folded into the recorder.
	Runs int `json:"runs"`
	// Merged is true when Runs > 1: occupancy checkpoints from separate
	// virtual clocks interleave, so conservation is not applicable (flows
	// themselves still merge additively and stay meaningful).
	Merged bool `json:"merged,omitempty"`
	// Checks counts occupancy checkpoints audited.
	Checks int64 `json:"checks"`
	// Windows is the per-window arithmetic, ascending by window.
	Windows []FlowWindowAudit `json:"windows,omitempty"`
	// Violations counts windows where conservation failed.
	Violations int `json:"violations"`
	// OK is true when every audited window conserved (vacuously true when
	// Merged or when nothing was checkpointed).
	OK bool `json:"ok"`
}

// AuditFlows runs the conservation check: for every checkpointed window, the
// occupancy delta since the previous checkpoint must equal the net signed
// flow recorded in between. A hook site that mutates occupancy without
// recording a flow (or records different bytes than it applied) fails the
// audit.
func AuditFlows(r *Recorder) FlowAudit {
	if r == nil {
		return FlowAudit{OK: true}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := FlowAudit{Runs: r.flowRuns, OK: true}
	if r.flowRuns > 1 {
		a.Merged = true
		for _, w := range r.occ {
			a.Checks += w.checks
		}
		return a
	}
	var havePrev bool
	var prevOcc, prevNet int64
	for win, w := range r.occ {
		if w.checks == 0 {
			continue
		}
		wa := FlowWindowAudit{Window: int64(win), Checks: w.checks}
		if havePrev {
			// Carry from the previous checkpointed window: flows recorded
			// after its last checkpoint land here.
			wa.OccDelta = w.lastOcc - prevOcc
			wa.FlowDelta = w.lastNet - prevNet
		} else {
			wa.OccDelta = w.lastOcc - w.firstOcc
			wa.FlowDelta = w.lastNet - w.firstNet
		}
		wa.OK = wa.OccDelta == wa.FlowDelta
		if !wa.OK {
			a.Violations++
			a.OK = false
		}
		a.Checks += w.checks
		a.Windows = append(a.Windows, wa)
		havePrev = true
		prevOcc = w.lastOcc
		prevNet = w.lastNet
	}
	return a
}

// FlowTotals sums each flow kind's bytes across all windows and dimensions,
// indexed by FlowKind — the compact digest WriteText prints.
func (r *Recorder) FlowTotals() [NumFlows]int64 {
	var totals [NumFlows]int64
	if r == nil {
		return totals
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.flows {
		s := &r.flows[i]
		for _, bytes := range s.cells {
			totals[s.key.kind] += bytes
		}
	}
	return totals
}
