package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

// StatefulRow is one cell of the ext-stateful sweep: one workflow shape run
// repeatedly on a rack, with intermediate state either passed through
// pool-backed shared regions ("pool") or re-derived from storage by every
// consumer ("reinit" — the stateless baseline real workflow engines pay).
type StatefulRow struct {
	// Workflow names the DAG shape; Mode is "pool" or "reinit"; Width is the
	// fan-out width applied to the shape's replicated stages (0 = the shape's
	// declared width); PressureMB is the pool's DRAM tier size.
	Workflow   string `json:"workflow"`
	Mode       string `json:"mode"`
	Width      int    `json:"width"`
	PressureMB int    `json:"pressure_mb"`
	// Runs / Completed count started and fully-drained workflow runs;
	// Invocations the completed stage requests across them.
	Runs        int `json:"runs"`
	Completed   int `json:"completed"`
	Invocations int `json:"invocations"`
	// MeanRunSec / P99RunSec summarize end-to-end workflow latency;
	// P99StageSec the per-stage request tail.
	MeanRunSec  float64 `json:"mean_run_sec"`
	P99RunSec   float64 `json:"p99_run_sec"`
	P99StageSec float64 `json:"p99_stage_sec"`
	// StateInSec / StateOutSec are the critical-path state-passing costs;
	// StateInMB / StateOutMB the bytes moved.
	StateInSec  float64 `json:"state_in_sec"`
	StateOutSec float64 `json:"state_out_sec"`
	StateInMB   float64 `json:"state_in_mb"`
	StateOutMB  float64 `json:"state_out_mb"`
	// Regions / RegionMaps / CowBreaks are the shared-region manager's
	// lifecycle counters; Replays / Reinits the consumers that re-derived
	// inputs (lost region / passing off or shortfall).
	Regions    int `json:"regions"`
	RegionMaps int `json:"region_maps"`
	CowBreaks  int `json:"cow_breaks"`
	Replays    int `json:"replays"`
	Reinits    int `json:"reinits"`
	// ShareReadMB is the byte-flow ledger's share-read traffic; FlowRows its
	// populated cells; AuditOK / AuditChecks the conservation verdict.
	ShareReadMB float64 `json:"share_read_mb"`
	FlowRows    int     `json:"flow_rows"`
	AuditOK     bool    `json:"audit_ok"`
	AuditChecks int64   `json:"audit_checks"`
	// Drained reports that every region (CoW clones included) was freed and
	// the region manager's refcount invariants held at run end.
	Drained bool `json:"drained"`
}

// StatefulOptions sizes the ext-stateful sweep.
type StatefulOptions struct {
	// Runs is the number of back-to-back workflow runs per cell. Default 6.
	Runs int
	// Seed drives workload randomness.
	Seed int64
}

// Every workflow cell runs on a two-node rack with a 2-minute keep-alive,
// and consecutive runs start 2 s apart.
const (
	statefulNodes     = 2
	statefulKeepAlive = 2 * time.Minute
	statefulGap       = 2 * time.Second
)

// statefulCell is one grid point of the sweep.
type statefulCell struct {
	wf         string
	pool       bool
	width      int
	pressureMB int
}

// Stateful measures pool-backed state passing against cold re-derivation
// across the built-in workflow shapes, then scales the "fanout" shape to
// widths 8 and 16 and squeezes the "pipeline" shape's DRAM tier to 64 and
// 16 MB (smaller tier → more spill/compression on the map path), both in
// pool mode. Each cell owns its engine and recorders, so rows are
// bit-identical at any -scenario-workers width.
func Stateful(opt StatefulOptions) []StatefulRow {
	if opt.Runs <= 0 {
		opt.Runs = 6
	}

	const defaultPressureMB = 512
	var cells []statefulCell
	for _, wf := range workload.WorkflowNames() {
		for _, pool := range []bool{true, false} {
			cells = append(cells, statefulCell{wf, pool, 0, defaultPressureMB})
		}
	}
	for _, w := range []int{8, 16} {
		cells = append(cells, statefulCell{"fanout", true, w, defaultPressureMB})
	}
	for _, p := range []int{64, 16} {
		cells = append(cells, statefulCell{"pipeline", true, 0, p})
	}

	rows := make([]StatefulRow, len(cells))
	runGrid(len(rows), func(i int) { rows[i] = runStatefulCell(opt, cells[i]) })
	return rows
}

// RunWorkflowCell runs one (workflow, mode, width, pressure) cell on its own
// engine — the gateway's /run uses this for single workflow requests. pool
// selects region-backed state passing; width 0 keeps the shape's declared
// fan-out; pressureMB 0 uses the sweep default.
func RunWorkflowCell(opt StatefulOptions, workflow string, pool bool, width, pressureMB int) StatefulRow {
	if opt.Runs <= 0 {
		opt.Runs = 4
	}
	if pressureMB <= 0 {
		pressureMB = 512
	}
	return runStatefulCell(opt, statefulCell{workflow, pool, width, pressureMB})
}

// runStatefulCell runs one (workflow, mode, width, pressure) cell.
func runStatefulCell(opt StatefulOptions, cell statefulCell) StatefulRow {
	wf, err := workload.WorkflowByName(cell.wf)
	if err != nil {
		panic(err)
	}
	if cell.width > 0 {
		// Scale the shape's replicated stages to the requested width.
		scaled := *wf
		scaled.Stages = append([]workload.Stage(nil), wf.Stages...)
		for i := range scaled.Stages {
			if scaled.Stages[i].Width() > 1 {
				scaled.Stages[i].Replicas = cell.width
			}
		}
		wf = &scaled
	}

	rec := timeseries.NewRecorder(timeseries.Config{Window: 10 * time.Second})
	nodeCfg := memnode.Config{
		DRAMBytes:  int64(cell.pressureMB) << 20,
		SpillBytes: 2 << 30,
	}
	e := simtime.NewEngine()
	c := cluster.New(e, cluster.Config{
		Nodes: statefulNodes,
		Node: faas.Config{
			KeepAliveTimeout: statefulKeepAlive,
			Seed:             opt.Seed,
			Telemetry:        telemetry.Hub{Timeline: rec},
		},
		Pool: rmem.Config{Node: &nodeCfg},
	}, func() policy.Policy { return core.New(core.Config{}) })

	mgr := sharedmem.New(sharedmem.Config{Pool: c.Pool()})
	we, err := faas.NewWorkflowEngine(faas.WorkflowConfig{
		Engine:       e,
		Shared:       mgr,
		Register:     func(id string, prof *workload.Profile) { c.Register(id, prof) },
		Invoke:       c.Invoke,
		StatePassing: cell.pool,
	}, wf)
	if err != nil {
		panic(err)
	}

	// Back-to-back runs: each run starts statefulGap after the previous one
	// drains, so later runs hit warm containers — the steady state a
	// workflow engine actually operates in.
	var runLat metrics.Sampler
	var startRun func(k int)
	startRun = func(k int) {
		we.Run(func(start, end simtime.Time) {
			runLat.AddDuration(time.Duration(end - start))
			if k+1 < opt.Runs {
				e.After(statefulGap, func(*simtime.Engine) { startRun(k + 1) })
			}
		})
	}
	startRun(0)
	// Generous horizon: chained runs finish far earlier; the tail lets
	// keep-alives expire so the rack drains.
	e.RunUntil(simtime.Time(opt.Runs)*simtime.Time(statefulGap+time.Minute) + simtime.Time(statefulKeepAlive))

	st := we.Stats()
	ms := mgr.Stats()
	mode := "reinit"
	if cell.pool {
		mode = "pool"
	}
	row := StatefulRow{
		Workflow:    cell.wf,
		Mode:        mode,
		Width:       cell.width,
		PressureMB:  cell.pressureMB,
		Runs:        st.Runs,
		Completed:   st.Completed,
		Invocations: st.Invocations,
		MeanRunSec:  runLat.Mean(),
		P99RunSec:   runLat.P99(),
		P99StageSec: rackRequestP99(c),
		StateInSec:  st.StateInTime.Seconds(),
		StateOutSec: st.StateOutTime.Seconds(),
		StateInMB:   metrics.MB(st.StateInBytes),
		StateOutMB:  metrics.MB(st.StateOutBytes),
		Regions:     ms.Created,
		RegionMaps:  ms.Maps,
		CowBreaks:   st.CowBreaks,
		Replays:     st.Replays,
		Reinits:     st.Reinits,
		Drained:     mgr.Drained() && mgr.CheckInvariants() == nil,
	}
	for _, fr := range rec.FlowRows() {
		if fr.Flow == timeseries.FlowShareRead.String() {
			row.ShareReadMB += metrics.MB(fr.Bytes)
		}
	}
	row.FlowRows = len(rec.FlowRows())
	audit := timeseries.AuditFlows(rec)
	row.AuditOK = audit.OK
	row.AuditChecks = audit.Checks
	return row
}

// PrintStateful renders the sweep.
func PrintStateful(w io.Writer, rows []StatefulRow) {
	fmt.Fprintln(w, "Extension: stateful workflows — pool-backed state passing vs re-initialization")
	table := make([][]string, len(rows))
	for i, r := range rows {
		audit := "OK"
		if !r.AuditOK {
			audit = "VIOLATED"
		}
		drained := "yes"
		if !r.Drained {
			drained = "NO"
		}
		width := "-"
		if r.Width > 0 {
			width = fmt.Sprintf("%d", r.Width)
		}
		table[i] = []string{
			r.Workflow,
			r.Mode,
			width,
			fmt.Sprintf("%d", r.PressureMB),
			fmt.Sprintf("%d/%d", r.Completed, r.Runs),
			fmt.Sprintf("%.3fs", r.MeanRunSec),
			fmt.Sprintf("%.3fs", r.P99RunSec),
			fmt.Sprintf("%.3fs", r.P99StageSec),
			fmt.Sprintf("%.3fs", r.StateInSec),
			fmt.Sprintf("%.1f", r.StateInMB),
			fmt.Sprintf("%d", r.Regions),
			fmt.Sprintf("%d", r.RegionMaps),
			fmt.Sprintf("%d", r.CowBreaks),
			fmt.Sprintf("%d", r.Reinits),
			fmt.Sprintf("%.1f", r.ShareReadMB),
			fmt.Sprintf("%s/%d", audit, r.AuditChecks),
			drained,
		}
	}
	writeTable(w, []string{
		"workflow", "mode", "width", "dram MB", "done", "mean", "P99",
		"stage P99", "state-in", "in MB", "regions", "maps", "cow",
		"reinits", "share-read MB", "audit", "drained",
	}, table)
}
