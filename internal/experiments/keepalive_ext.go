package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// KeepAliveRow compares one (keep-alive strategy, offload policy) cell.
type KeepAliveRow struct {
	Strategy string     `col:"keep-alive"` // "fixed-10m" | "adaptive"
	Policy   PolicyKind `col:"policy"`
	// AvgLocalMB is the average node-local memory.
	AvgLocalMB float64 `col:"avg local,%.0f MB"`
	// ColdStartRatio across all requests.
	ColdStartRatio float64 `col:"cold-start ratio,%.2f%%,pct"`
	// P95 end-to-end latency in seconds.
	P95 float64 `col:"P95,%.3fs"`
}

// keepAliveDuration is the length of the generated web trace.
const keepAliveDuration = 30 * time.Minute

// KeepAliveStrategies quantifies the §10 composition claim: FaaSMem's
// offloading is orthogonal to smarter keep-alive policies (the
// hybrid-histogram family), and combining both stacks their savings —
// the adaptive timeout recycles containers that will not be reused while
// FaaSMem shrinks the ones that stay.
func KeepAliveStrategies(seed int64) []KeepAliveRow {
	prof := workload.Web()
	fn := trace.GenerateFunction("web", keepAliveDuration, 10*time.Second, true, seed)

	run := func(adaptive bool, kind PolicyKind) KeepAliveRow {
		var pol policy.Policy
		var fm *core.FaaSMem
		if kind == Baseline {
			pol = policy.NoOffload{}
		} else {
			fm = core.New(core.Config{})
			pol = fm
		}
		e := simtime.NewEngine()
		p := faas.New(e, faas.Config{
			KeepAliveTimeout:  10 * time.Minute,
			AdaptiveKeepAlive: adaptive,
			Seed:              seed,
		}, pol)
		f := p.Register("web", prof)
		p.ScheduleInvocations("web", fn.Invocations)
		if fm != nil {
			ka := trace.SimulateKeepAlive(fn.Invocations, prof.ExecTime, 10*time.Minute)
			fm.SeedReuseIntervals("web", ka.ReusedIntervals)
		}
		e.RunUntil(keepAliveDuration + 10*time.Minute)

		strategy := "fixed-10m"
		if adaptive {
			strategy = "adaptive"
		}
		row := KeepAliveRow{
			Strategy:   strategy,
			Policy:     kind,
			AvgLocalMB: p.NodeLocalAvg() / 1e6,
			P95:        f.Stats().Latency.P95(),
		}
		if f.Stats().Requests > 0 {
			row.ColdStartRatio = float64(f.Stats().ColdStarts) / float64(f.Stats().Requests)
		}
		return row
	}

	cells := []struct {
		adaptive bool
		kind     PolicyKind
	}{
		{false, Baseline},
		{false, FaaSMem},
		{true, Baseline},
		{true, FaaSMem},
	}
	rows := make([]KeepAliveRow, len(cells))
	runGrid(len(cells), func(i int) { rows[i] = run(cells[i].adaptive, cells[i].kind) })
	return rows
}
