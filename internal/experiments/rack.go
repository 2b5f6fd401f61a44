package experiments

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// mixedFn is one function of a rack workload: a benchmark profile plus its
// generated invocation schedule.
type mixedFn struct {
	prof *workload.Profile
	inv  []simtime.Time
}

// mixedWorkload generates the mixed 11-benchmark invocation schedule that
// the pool-backed racks share (ext-pool-density, ext-merge and the three
// fault sweeps): one function per benchmark, bursty arrivals so busy
// functions scale out to several concurrent containers. Sharing the
// generator is what lets the merge sweep's function-scope cell reproduce the
// density sweep's dedup rows exactly.
func mixedWorkload(d time.Duration, seed int64) []mixedFn {
	var fns []mixedFn
	for i, prof := range workload.Profiles() {
		fn := trace.GenerateFunction(prof.Name, d,
			time.Duration(3+i)*time.Second, true, seed+int64(i))
		if len(fn.Invocations) == 0 {
			continue
		}
		fns = append(fns, mixedFn{prof: prof, inv: fn.Invocations})
	}
	return fns
}

// runMixedRack is the one build path of every scheduled rack experiment: it
// builds a cluster from cfg with a kind policy on each node, registers and
// schedules fns (each on its own copy of the profile, with the given runtime
// write ratio), and runs the rack to horizon.
func runMixedRack(cfg cluster.Config, kind PolicyKind, fns []mixedFn, writeRatio float64, horizon time.Duration) *cluster.Cluster {
	e := simtime.NewEngine()
	c := cluster.New(e, cfg, func() policy.Policy {
		pol, _ := BuildPolicy(kind, core.Config{})
		return pol
	})
	for _, f := range fns {
		p := *f.prof
		p.RuntimeWriteRatio = writeRatio
		c.Register(p.Name, &p)
		c.ScheduleInvocations(p.Name, f.inv)
	}
	e.RunUntil(horizon)
	return c
}

// memNodePeaks returns the memory node's peak logical and resident bytes in
// MB and their ratio, the effective-capacity amplification (1 when nothing
// was ever resident).
func memNodePeaks(mn *memnode.Stats) (logicalMB, residentMB, amplification float64) {
	amplification = 1
	if mn.PeakResidentBytes > 0 {
		amplification = float64(mn.PeakLogicalBytes) / float64(mn.PeakResidentBytes)
	}
	return float64(mn.PeakLogicalBytes) / 1e6, float64(mn.PeakResidentBytes) / 1e6, amplification
}

// rackRequestP99 is the P99 end-to-end latency, in seconds, over every
// request the rack's nodes completed.
func rackRequestP99(c *cluster.Cluster) float64 {
	var lat metrics.Sampler
	for _, n := range c.Nodes() {
		for _, f := range n.Functions() {
			lat.Merge(&f.Stats().Latency)
		}
	}
	return lat.P99()
}

// faultRack runs the rack the fault sweeps (ext-resilience, ext-observe,
// ext-drilldown) share: the mixed workload on three FaaSMem nodes over a
// 512 MB memory node, under a fault plan of the given intensity that spans
// the run (trace, keep-alive drain and one more minute); seed drives both
// the workload and the plan. fallback turns on the local-swap fallback read
// path, and hub carries the sweep's recorders. The run ends at the plan's
// horizon, so c.Engine().Now() is that horizon.
func faultRack(d, keepAlive time.Duration, seed int64,
	intensity float64, fallback bool, hub telemetry.Hub) (*cluster.Cluster, *faultinject.Plan) {
	horizon := d + keepAlive + time.Minute
	plan := faultinject.New(faultinject.Config{
		Horizon:   horizon,
		Intensity: intensity,
		Seed:      seed,
	})
	var swap faas.SwapConfig
	if fallback {
		swap.FallbackReadLatency = 50 * time.Microsecond
	}
	nodeCfg := memnode.Config{DRAMBytes: 512 << 20, SpillBytes: 512 << 20}
	c := runMixedRack(cluster.Config{
		Nodes: 3,
		Node: faas.Config{
			KeepAliveTimeout: keepAlive,
			Seed:             seed,
			Swap:             swap,
			Telemetry:        hub,
		},
		Pool: rmem.Config{Node: &nodeCfg, Faults: plan},
	}, FaaSMem, mixedWorkload(d, seed), 0, horizon)
	return c, plan
}

// RackRow summarizes one policy's rack-wide outcome under a DRAM limit.
type RackRow struct {
	Policy PolicyKind `col:"policy"`
	// ColdStartRatio across all requests (evictions manufacture cold starts).
	ColdStartRatio float64 `col:"cold-start ratio,%.2f%%,pct"`
	// Evicted counts idle containers reclaimed by the memory limit.
	Evicted int `col:"evictions"`
	// Requests served rack-wide.
	Requests int `col:"2:requests"`
	// AvgLocalMB is the summed average node-local memory.
	AvgLocalMB float64 `col:"avg rack local,%.0f MB"`
	// OffloadBWMBps is the rack-level link's average offload bandwidth —
	// §9 sizes the rack link from this number.
	OffloadBWMBps float64 `col:"offload BW,%.2f MB/s"`
	// Rescheduled counts warm reuses redirected off memory-strapped nodes
	// (the §9 load-imbalance case).
	Rescheduled int `col:"rescheduled"`
}

// RackDensityOptions sizes the rack study.
type RackDensityOptions struct {
	// Nodes in the rack. Default 4 (keeps the study fast; §9 uses ~10).
	Nodes int
	// Functions mapped round-robin onto the three applications. Default 12.
	Functions int
	// Duration of the trace. Default 20 m.
	Duration time.Duration
	Seed     int64
}

// rackNodeMemoryLimitMB is the per-node DRAM of the rack study: tight enough
// that the baseline must evict keep-alive containers.
const rackNodeMemoryLimitMB = 2000

// RackDensity measures the deployment-density mechanism directly (instead of
// Fig. 16's quota arithmetic): under the same per-node DRAM limit, FaaSMem's
// offloading keeps more keep-alive containers resident, so fewer idle
// containers are evicted and fewer requests cold-start.
func RackDensity(opt RackDensityOptions) []RackRow {
	if opt.Nodes <= 0 {
		opt.Nodes = 4
	}
	if opt.Functions <= 0 {
		opt.Functions = 12
	}
	if opt.Duration <= 0 {
		opt.Duration = 20 * time.Minute
	}
	// The renamed-app workload: functions round-robin over three apps, each
	// with its own rate and every other one bursty.
	apps := []*workload.Profile{workload.Bert(), workload.Graph(), workload.Web()}
	var fns []mixedFn
	for i := 0; i < opt.Functions; i++ {
		prof := *apps[i%len(apps)]
		prof.Name = fmt.Sprintf("%s-%d", prof.Name, i)
		fn := trace.GenerateFunction(prof.Name, opt.Duration,
			time.Duration(20+7*i)*time.Second, i%2 == 0, opt.Seed+int64(i))
		if len(fn.Invocations) == 0 {
			continue
		}
		fns = append(fns, mixedFn{prof: &prof, inv: fn.Invocations})
	}

	run := func(kind PolicyKind) RackRow {
		c := runMixedRack(cluster.Config{
			Nodes: opt.Nodes,
			Node: faas.Config{
				KeepAliveTimeout: 10 * time.Minute,
				NodeMemoryLimit:  rackNodeMemoryLimitMB * 1_000_000,
				Seed:             opt.Seed,
			},
		}, kind, fns, 0, opt.Duration+10*time.Minute)
		st := c.Stats()
		row := RackRow{
			Policy:        kind,
			Evicted:       st.Evicted,
			Requests:      st.Requests,
			AvgLocalMB:    st.TotalLocalAvgMB,
			OffloadBWMBps: st.OffloadBWMBps,
			Rescheduled:   st.Rescheduled,
		}
		if st.Requests > 0 {
			row.ColdStartRatio = float64(st.ColdStarts) / float64(st.Requests)
		}
		return row
	}
	kinds := []PolicyKind{Baseline, FaaSMem}
	rows := make([]RackRow, len(kinds))
	runGrid(len(kinds), func(i int) { rows[i] = run(kinds[i]) })
	return rows
}
