package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// This file implements the ext-attrib extension: Fig. 2's latency-damage
// story retold as phase attribution. Fig. 2 shows a page-reclamation policy
// hurting request latency without explaining *where* the damage lands; with
// causal spans we can sweep memory pressure (how aggressively FaaSMem
// drains idle containers toward the pool) and show the remote-fault /
// restore share of tail latency rising as local memory falls.

// AttribRow is one pressure step's outcome.
type AttribRow struct {
	// SemiWarmDelay is the drain timing: smaller = more pressure.
	SemiWarmDelay time.Duration `col:"semi-warm delay"`
	// AvgLocalMB is the average node-local memory (falls with pressure).
	AvgLocalMB float64 `col:"avg local,%.0f MB"`
	// P50 and P99 are end-to-end latencies in seconds.
	P50 float64 `col:"P50,%.3fs"`
	P99 float64 `col:"P99,%.3fs"`
	// StallShareP99 is the fraction of the P99 invocation's latency spent
	// in remote-memory phases (fault-stall + restore + backlog).
	StallShareP99 float64 `col:"stall share (P99),%.1f%%,pct"`
	// MeanStallShare is the remote-memory share of mean latency.
	MeanStallShare float64 `col:"5:stall share (mean),%.1f%%,pct"`
	// Analysis is the step's full attribution (per-function tables, start
	// kinds), for -format json consumers.
	Analysis *span.Analysis
}

// attribDuration is the length of the generated bert trace.
const attribDuration = 30 * time.Minute

// stallShare extracts the remote-memory share of a breakdown's total.
func stallShare(bd span.Breakdown) float64 {
	if bd.Total <= 0 {
		return 0
	}
	remote := bd.Phase[span.PhaseFaultStall] + bd.Phase[span.PhaseRestore] +
		bd.Phase[span.PhaseBacklog]
	return float64(remote) / float64(bd.Total)
}

// AttribPressure sweeps memory pressure by shrinking the semi-warm drain
// delay (each container starts offloading sooner after idling) and
// attributes every request's latency to phases. Expected shape: average
// local memory falls monotonically and the remote-stall share of latency
// rises monotonically — Fig. 2's "latency damage", now with the damage
// pinned to the restore phase instead of inferred from end-to-end deltas.
func AttribPressure(seed int64) []AttribRow {
	prof := workload.Bert()
	inv := trace.GenerateFunction("bert", attribDuration, 25*time.Second, false, seed).Invocations
	delays := []time.Duration{
		2 * time.Minute, time.Minute, 30 * time.Second, 10 * time.Second, 2 * time.Second,
	}
	recs := make([]*span.Recorder, len(delays))
	scs := make([]Scenario, len(delays))
	for i, d := range delays {
		recs[i] = span.NewRecorder(1 << 14)
		scs[i] = Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    attribDuration,
			Policy:      FaaSMem,
			CoreConfig: core.Config{
				// Pin the drain timing: ignore collected reuse intervals so
				// the delay is the pressure knob, not a starting estimate.
				MinIntervalSamples:    1 << 30,
				FallbackSemiWarmDelay: d,
			},
			Seed:      seed,
			Telemetry: telemetry.Hub{Spans: recs[i]},
		}
	}
	outs := RunScenarios(scs)
	rows := make([]AttribRow, len(delays))
	for i, d := range delays {
		an := span.Analyze(recs[i].Invocations())
		row := AttribRow{
			SemiWarmDelay: d,
			AvgLocalMB:    outs[i].AvgLocalMB,
			P50:           outs[i].P50,
			P99:           outs[i].P99,
			Analysis:      an,
		}
		for _, bd := range an.Overall.Breakdowns {
			if bd.Q == 0.99 {
				row.StallShareP99 = stallShare(bd)
			}
		}
		if an.Overall.MeanTotal > 0 {
			remote := an.Overall.MeanPhase[span.PhaseFaultStall] +
				an.Overall.MeanPhase[span.PhaseRestore] +
				an.Overall.MeanPhase[span.PhaseBacklog]
			row.MeanStallShare = remote / an.Overall.MeanTotal
		}
		rows[i] = row
	}
	return rows
}
