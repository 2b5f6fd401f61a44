package experiments

import (
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// ResilienceRow is one fault-intensity cell of the ext-resilience sweep.
type ResilienceRow struct {
	// Intensity scales every fault window's duration and severity; 0 is the
	// fault-free baseline (no plan attached at all).
	Intensity float64 `json:"intensity" col:"intensity,%.2f"`
	// UnhealthyPct is the share of the run the remote path was unusable
	// (link flap or pool-node crash), from the generated plan.
	UnhealthyPct float64 `json:"unhealthy_pct" col:"unhealthy,%.1f%%"`
	// Submitted counts requests routed into the rack; after the drain every
	// one lands in exactly one completion class below.
	Submitted int `json:"submitted" col:"submitted"`
	// Completed are requests that finished without fault recovery.
	Completed int `json:"completed" col:"completed"`
	// Rescheduled are requests diverted away from containers stranded
	// behind the unhealthy pool, then completed elsewhere.
	Rescheduled int `json:"rescheduled" col:"rescheduled"`
	// Failed are requests whose page fetch timed out; they completed only
	// through recovery (local-swap fallback or a cold re-init).
	Failed int `json:"failed" col:"failed"`
	// ColdStartRatio and P99Sec are the headline degradation metrics.
	ColdStartRatio float64 `json:"cold_start_ratio" col:"cold-start,%.2f%%,pct"`
	P99Sec         float64 `json:"p99_sec" col:"P99,%.3fs"`
	// Recovery-machinery activity.
	FetchRetries  int64 `json:"fetch_retries" col:"retries"`
	FetchTimeouts int64 `json:"fetch_timeouts" col:"timeouts"`
	FallbackPages int64 `json:"fallback_pages" col:"fallback pages"`
	ColdReinits   int   `json:"cold_reinits" col:"11:re-inits"`
	// RescheduledFault counts scheduler diversions (≥ Rescheduled: a
	// diverted request may still end in the re-init class).
	RescheduledFault int `json:"rescheduled_fault"`
}

// The ext-resilience rack replays a 12-minute trace with a 10-minute
// keep-alive at each swept fault intensity.
const (
	resilienceDuration  = 12 * time.Minute
	resilienceKeepAlive = 10 * time.Minute
)

var resilienceIntensities = []float64{0, 0.25, 0.5, 1}

// Resilience measures how the rack degrades as injected faults intensify:
// the mixed workload runs against the same pool under fault plans of
// increasing intensity (each plan's windows contain the weaker plan's, so
// the exposure is strictly nested), and each row reports tail latency, the
// cold-start ratio, and where the recovery machinery routed the affected
// requests. The local-swap fallback is off, so a fetch timeout ends in a
// cold re-init. Request conservation — completed + rescheduled + failed ==
// submitted — holds on every row by construction. seed drives both the
// workload and the fault plan.
func Resilience(seed int64) []ResilienceRow {
	run := func(intensity float64) ResilienceRow {
		c, plan := faultRack(resilienceDuration, resilienceKeepAlive, seed,
			intensity, false, telemetry.Hub{})

		st := c.Stats()
		row := ResilienceRow{
			Intensity:        intensity,
			UnhealthyPct:     plan.UnhealthyFraction(c.Engine().Now()) * 100,
			Submitted:        st.Submitted,
			Completed:        st.Recovery.DoneNormal,
			Rescheduled:      st.Recovery.DoneRescheduled,
			Failed:           st.Recovery.DoneReinit,
			FetchRetries:     st.Recovery.FetchRetries,
			FetchTimeouts:    st.Recovery.FetchTimeouts,
			FallbackPages:    st.Recovery.FallbackPages,
			ColdReinits:      st.Recovery.ColdReinits,
			RescheduledFault: st.RescheduledFault,
			P99Sec:           rackRequestP99(c),
		}
		if st.Requests > 0 {
			row.ColdStartRatio = float64(st.ColdStarts) / float64(st.Requests)
		}
		return row
	}

	rows := make([]ResilienceRow, len(resilienceIntensities))
	runGrid(len(rows), func(i int) { rows[i] = run(resilienceIntensities[i]) })
	return rows
}
