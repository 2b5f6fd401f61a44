package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// This file implements two studies beyond the paper's figures, quantifying
// claims its Discussion (§9) and ablation commentary (§8.3.2) make in prose:
//
//   - PoolComparison: RDMA vs CXL vs SSD as the memory-pool technology.
//     §9 argues CXL works at least as well and SSDs cannot keep up because
//     durability limits cap write bandwidth near 1 MB/s.
//   - ColdStartTiming: the §8.3.2 opportunity — correcting the semi-warm
//     timing for cold-start-censored reuse intervals to repair the bursty
//     P99 regression.

// PoolRow is one memory-pool technology's outcome.
type PoolRow struct {
	Pool string `col:"pool"`
	// P95/P99 end-to-end latency in seconds.
	P95 float64 `col:"P95,%.3fs"`
	P99 float64 `col:"P99,%.3fs"`
	// AvgLocalMB is the average node-local memory.
	AvgLocalMB float64 `col:"avg local,%.0f MB"`
	// OffloadedMB is cumulative offload traffic.
	OffloadedMB float64 `col:"offloaded,%.0f MB"`
}

// PoolComparisonOptions sizes the study.
type PoolComparisonOptions struct {
	Duration time.Duration
	Seed     int64
}

// PoolComparison runs the Bert benchmark under FaaSMem against three pool
// technologies. Expected shape per §9: CXL ≤ RDMA latency at equal savings;
// the SSD's ~1 MB/s durability-limited writes strangle the offload pipeline
// so it saves far less memory.
func PoolComparison(opt PoolComparisonOptions) []PoolRow {
	if opt.Duration <= 0 {
		opt.Duration = 20 * time.Minute
	}
	prof := workload.Bert()
	inv := trace.GenerateFunction("bert", opt.Duration, 10*time.Second, true, opt.Seed).Invocations
	pools := []struct {
		name string
		cfg  rmem.Config
	}{
		{"rdma-56g", rmem.Config{}},
		{"cxl", rmem.CXLConfig()},
		{"ssd", rmem.SSDConfig()},
	}
	scs := make([]Scenario, len(pools))
	for i, pl := range pools {
		scs[i] = Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    opt.Duration,
			Policy:      FaaSMem,
			SeedHistory: true,
			Seed:        opt.Seed,
			Pool:        pl.cfg,
		}
	}
	outs := RunScenarios(scs)
	var rows []PoolRow
	for i, pl := range pools {
		out := outs[i]
		rows = append(rows, PoolRow{
			Pool:        pl.name,
			P95:         out.P95,
			P99:         out.P99,
			AvgLocalMB:  out.AvgLocalMB,
			OffloadedMB: out.OffloadedMB,
		})
	}
	return rows
}

// ColdStartTimingRow compares semi-warm timing with and without the
// cold-start-aware correction under one load shape.
type ColdStartTimingRow struct {
	Case      string  `col:"case"`
	Corrected bool    `col:"timing,cold-start-aware|collected 99%-ile"`
	P99       float64 `col:"P99,%.3fs"`
	AvgMemMB  float64 `col:"avg mem,%.0f MB"`
}

// ColdStartTimingOptions sizes the study.
type ColdStartTimingOptions struct {
	Duration time.Duration
	Seed     int64
}

// ColdStartTiming quantifies the §8.3.2 opportunity: under bursty load, the
// collected reused intervals are censored by cold starts, the semi-warm
// timing fires too early, and P99 regresses; stretching the timing by the
// observed cold-start fraction trades a little memory back for tail latency.
func ColdStartTiming(opt ColdStartTimingOptions) []ColdStartTimingRow {
	if opt.Duration <= 0 {
		opt.Duration = 20 * time.Minute
	}
	prof := workload.Bert()
	cases := []struct {
		name   string
		bursty bool
	}{{"common", false}, {"bursty", true}}
	var scs []Scenario
	for _, cs := range cases {
		inv := trace.GenerateFunction("bert", opt.Duration, 12*time.Second, cs.bursty, opt.Seed).Invocations
		for _, corrected := range []bool{false, true} {
			scs = append(scs, Scenario{
				Profile:     prof,
				Invocations: inv,
				Duration:    opt.Duration,
				Policy:      FaaSMem,
				CoreConfig:  core.Config{ColdStartAwareTiming: corrected},
				SeedHistory: true,
				Seed:        opt.Seed,
			})
		}
	}
	outs := RunScenarios(scs)
	var rows []ColdStartTimingRow
	i := 0
	for _, cs := range cases {
		for _, corrected := range []bool{false, true} {
			out := outs[i]
			i++
			rows = append(rows, ColdStartTimingRow{
				Case:      cs.name,
				Corrected: corrected,
				P99:       out.P99,
				AvgMemMB:  out.AvgLocalMB,
			})
		}
	}
	return rows
}

// ReadaheadRow compares the demand-fault path with and without swap
// readahead for one readahead window.
type ReadaheadRow struct {
	Window int     `col:"readahead,%d pages"`
	P95    float64 `col:"P95,%.3fs"`
	P99    float64 `col:"P99,%.3fs"`
	// FaultPages is the number of blocking demand faults (readahead hits
	// ride along without their own fault rounds).
	FaultPages int64 `col:"blocking faults"`
}

// readaheadDuration is the length of the generated bursty bert trace.
const readaheadDuration = 20 * time.Minute

// Readahead quantifies the §10 "prefetching remote memory" (Leap) direction:
// swap readahead turns clustered demand faults on contiguous offloaded
// ranges into one fault per window, shrinking semi-warm recall tails.
func Readahead(seed int64) []ReadaheadRow {
	prof := workload.Bert()
	inv := trace.GenerateFunction("bert", readaheadDuration, 12*time.Second, true, seed).Invocations
	windows := []int{0, 2, 8, 32}
	scs := make([]Scenario, len(windows))
	for i, window := range windows {
		scs[i] = Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    readaheadDuration,
			Policy:      FaaSMem,
			SeedHistory: true,
			Seed:        seed,
			Swap:        faas.SwapConfig{ReadaheadPages: window},
		}
	}
	outs := RunScenarios(scs)
	var rows []ReadaheadRow
	for i, window := range windows {
		rows = append(rows, ReadaheadRow{
			Window:     window,
			P95:        outs[i].P95,
			P99:        outs[i].P99,
			FaultPages: outs[i].FaultPages,
		})
	}
	return rows
}

// PercentileRow is one semi-warm timing percentile's outcome.
type PercentileRow struct {
	Percentile float64 `col:"timing,P%g"`
	P95        float64 `col:"P95,%.3fs"`
	P99        float64 `col:"P99,%.3fs"`
	AvgMemMB   float64 `col:"avg mem,%.0f MB"`
	// SemiWarmStarts counts reuses that hit a semi-warm container.
	SemiWarmStarts int `col:"semi-warm starts"`
}

// PercentileSweepOptions sizes the study.
type PercentileSweepOptions struct {
	Duration time.Duration
	Seed     int64
}

// PercentileSweep quantifies §6.1's pessimistic-estimation choice: the
// semi-warm start timing is a percentile of the container reused-interval
// distribution. Lower percentiles start semi-warm earlier (more memory
// saved, more reuses pay recall penalties); the paper picks the 99th to
// guard the 95%-ile latency.
func PercentileSweep(opt PercentileSweepOptions) []PercentileRow {
	if opt.Duration <= 0 {
		opt.Duration = 20 * time.Minute
	}
	prof := workload.Bert()
	inv := trace.GenerateFunction("bert", opt.Duration, 15*time.Second, false, opt.Seed).Invocations
	pcts := []float64{50, 90, 95, 99}
	scs := make([]Scenario, len(pcts))
	for i, pct := range pcts {
		scs[i] = Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    opt.Duration,
			Policy:      FaaSMem,
			CoreConfig:  core.Config{SemiWarmPercentile: pct},
			SeedHistory: true,
			Seed:        opt.Seed,
		}
	}
	outs := RunScenarios(scs)
	var rows []PercentileRow
	for i, pct := range pcts {
		rows = append(rows, PercentileRow{
			Percentile:     pct,
			P95:            outs[i].P95,
			P99:            outs[i].P99,
			AvgMemMB:       outs[i].AvgLocalMB,
			SemiWarmStarts: outs[i].SemiWarmStarts,
		})
	}
	return rows
}
