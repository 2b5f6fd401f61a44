package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
)

// PoolDensityMode names one memory-node configuration under study.
type PoolDensityMode string

const (
	// DensityOff is the dedup/compression-off baseline: the node stores
	// every offloaded page privately and raw.
	DensityOff PoolDensityMode = "off"
	// DensityDedup enables content-class dedup only.
	DensityDedup PoolDensityMode = "dedup"
	// DensityDedupZswap enables dedup plus the compression tier.
	DensityDedupZswap PoolDensityMode = "dedup+zswap"
)

// PoolDensityRow is one (DRAM capacity, mode) cell of the sweep.
type PoolDensityRow struct {
	DRAMMB int             `json:"dram_mb" col:"node DRAM,%d MB"`
	Mode   PoolDensityMode `json:"mode" col:"mode"`
	// Requests served and the cold-start ratio, to show the density win is
	// not bought with latency regressions.
	Requests       int     `json:"requests" col:"requests"`
	ColdStartRatio float64 `json:"cold_start_ratio" col:"cold-start,%.2f%%,pct"`
	// OffloadedMB is total offload traffic accepted over the run.
	OffloadedMB float64 `json:"offloaded_mb" col:"offloaded,%.0f MB"`
	// LogicalPeakMB / ResidentPeakMB: peak bytes the compute side had
	// offloaded vs peak bytes the node actually stored.
	LogicalPeakMB  float64 `json:"logical_peak_mb" col:"logical peak,%.0f MB"`
	ResidentPeakMB float64 `json:"resident_peak_mb" col:"resident peak,%.0f MB"`
	// Amplification is LogicalPeak / ResidentPeak — the effective-capacity
	// multiplier. The off baseline is 1.0 by construction.
	Amplification float64 `json:"amplification" col:"amplification,%.2fx"`
	// DedupSavedMB / CompressSavedMB decompose where the savings came from
	// (values at end of run's peak tracking counters).
	DedupHitPages   int64 `json:"dedup_hit_pages" col:"dedup hits"`
	CompressedPages int64 `json:"compressed_pages" col:"compressed"`
	SpilledPages    int64 `json:"spilled_pages" col:"spilled"`
	FullRejectPages int64 `json:"full_reject_pages"`
}

// PoolDensityOptions sizes the sweep.
type PoolDensityOptions struct {
	// DRAMMBs are the node DRAM capacities swept. Default {256, 512}.
	DRAMMBs []int
	// Duration of the generated trace. Default 15 m.
	Duration time.Duration
	Seed     int64
}

// PoolDensity measures the memory node's effective-capacity amplification:
// the mixed 11-benchmark workload runs on a rack whose shared pool is backed
// by a memnode, and each row compares the peak logical bytes the rack had
// offloaded against the bytes the node actually stored. FaaSMem offloads
// mostly init/runtime pages, which dedup across the concurrent containers of
// a function ("User-guided Page Merging"), and cold entries compress under
// DRAM pressure ("Squeezy") — together they let the same DRAM hold a
// multiple of its raw capacity. The off row is the dedup/compression-off
// baseline (amplification 1.0 by construction).
func PoolDensity(opt PoolDensityOptions) []PoolDensityRow {
	if len(opt.DRAMMBs) == 0 {
		opt.DRAMMBs = []int{256, 512}
	}
	if opt.Duration <= 0 {
		opt.Duration = 15 * time.Minute
	}
	// The rack: 3 compute nodes and a 512 MB spill tier under the paper's
	// 10-minute keep-alive.
	const (
		nodes     = 3
		spillMB   = 512
		keepAlive = 10 * time.Minute
	)
	modes := []PoolDensityMode{DensityOff, DensityDedup, DensityDedupZswap}

	// Every cell runs the identical mixed workload; generate the invocation
	// traces once and share the (read-only) schedules across cells.
	fns := mixedWorkload(opt.Duration, opt.Seed)

	run := func(dramMB int, mode PoolDensityMode) PoolDensityRow {
		nodeCfg := memnode.Config{
			DRAMBytes:          int64(dramMB) << 20,
			SpillBytes:         spillMB << 20,
			DisableDedup:       mode == DensityOff,
			DisableCompression: mode != DensityDedupZswap,
		}
		c := runMixedRack(cluster.Config{
			Nodes: nodes,
			Node: faas.Config{
				KeepAliveTimeout: keepAlive,
				Seed:             opt.Seed,
			},
			Pool: rmem.Config{Node: &nodeCfg},
		}, FaaSMem, fns, 0, opt.Duration+keepAlive+time.Minute)

		st := c.Stats()
		row := PoolDensityRow{
			DRAMMB:      dramMB,
			Mode:        mode,
			Requests:    st.Requests,
			OffloadedMB: float64(c.Pool().Meter(rmem.Offload).Total()) / 1e6,
		}
		if st.Requests > 0 {
			row.ColdStartRatio = float64(st.ColdStarts) / float64(st.Requests)
		}
		if mn := st.MemNode; mn != nil {
			row.LogicalPeakMB, row.ResidentPeakMB, row.Amplification = memNodePeaks(mn)
			row.DedupHitPages = mn.DedupHitPages
			row.CompressedPages = mn.CompressedPages
			row.SpilledPages = mn.SpilledPages
			row.FullRejectPages = mn.FullRejectPages
		}
		return row
	}

	rows := make([]PoolDensityRow, len(opt.DRAMMBs)*len(modes))
	runGrid(len(rows), func(i int) {
		rows[i] = run(opt.DRAMMBs[i/len(modes)], modes[i%len(modes)])
	})
	return rows
}
