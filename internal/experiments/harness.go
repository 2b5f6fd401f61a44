// Package experiments contains one harness per figure and table of the
// paper's evaluation (§2, §3, §8). Each harness returns structured rows —
// the same rows/series the paper plots — plus a printer, so cmd/experiments
// can regenerate the whole evaluation and EXPERIMENTS.md can record
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/fastswap"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// PolicyKind names the policies compared throughout the evaluation.
type PolicyKind string

// The compared policies.
const (
	Baseline        PolicyKind = "baseline"
	TMO             PolicyKind = "tmo"
	DAMON           PolicyKind = "damon"
	FaaSMem         PolicyKind = "faasmem"
	FaaSMemNoPucket PolicyKind = "faasmem-w/o-pucket"
	FaaSMemNoSemi   PolicyKind = "faasmem-w/o-semiwarm"
)

// Scenario is one single-function simulation run.
type Scenario struct {
	// Profile is the benchmark to run.
	Profile *workload.Profile
	// Invocations is the request timeline.
	Invocations []simtime.Time
	// Duration is the trace window; the run is measured over
	// Duration + KeepAlive.
	Duration time.Duration
	// KeepAlive is the container keep-alive timeout (paper: 10 minutes).
	KeepAlive time.Duration
	// Policy picks the offloading policy.
	Policy PolicyKind
	// CoreConfig overrides FaaSMem tuning (zero = paper defaults).
	CoreConfig core.Config
	// SeedHistory pre-seeds FaaSMem's semi-warm timing from an offline
	// keep-alive analysis of the invocation timeline, as the paper's
	// provider-side profiling does (§6.1).
	SeedHistory bool
	// Seed drives workload randomness.
	Seed int64
	// Pool overrides the memory-pool configuration (zero = the paper's
	// 56 Gbps RDMA defaults). Use rmem.CXLConfig or rmem.SSDConfig for the
	// §9 technology comparison.
	Pool rmem.Config
	// Swap overrides the swap-device configuration (slot capacity,
	// readahead window).
	Swap fastswap.Config
	// MemTimeline, when non-nil, receives (time, node local MB) samples
	// every MemSampleEvery (Fig. 13's timeline plot).
	MemTimeline *metrics.Series
	// MemSampleEvery defaults to 10 s when MemTimeline is set.
	MemSampleEvery time.Duration
	// Telemetry attaches the run's sinks: tracer, registry, spans, timeline
	// and exemplars. Each nil sink falls back to the process default
	// (telemetry.Hub.OrDefault), so cmd/experiments' -trace, -attrib,
	// -timeline and -exemplars flags capture every harness without plumbing.
	Telemetry telemetry.Hub
}

// Outcome summarizes one scenario run.
type Outcome struct {
	Policy PolicyKind
	// AvgLocalMB is the time-weighted average node-local memory in MB.
	AvgLocalMB float64
	// PeakLocalMB is the peak node-local memory in MB.
	PeakLocalMB float64
	// AvgRemoteMB is the time-weighted average remote residency in MB.
	AvgRemoteMB float64
	// AvgLat, P50, P95, P99 are end-to-end latencies in seconds.
	AvgLat, P50, P95, P99 float64
	// Requests, ColdStarts, WarmStarts, SemiWarmStarts count request paths.
	Requests, ColdStarts, WarmStarts, SemiWarmStarts int
	// FaultPages and RuntimeFaultPages count remote page faults.
	FaultPages, RuntimeFaultPages int64
	// OffloadedMB and RecalledMB are cumulative pool traffic in MB.
	OffloadedMB, RecalledMB float64
	// OffloadBWMBps and RecallBWMBps are lifetime-average link rates in MB/s.
	OffloadBWMBps, RecallBWMBps float64
	// LiveAvg is the time-weighted average live container count.
	LiveAvg float64
	// CoreStats is non-nil for FaaSMem runs.
	CoreStats *core.Stats
	// Recovery is non-nil when the scenario ran under a fault plan: the
	// node's fault-recovery counters (retries, timeouts, fallbacks,
	// re-inits, completion classes).
	Recovery *faas.RecoveryStats
	// MemNode is non-nil when the scenario's pool was backed by a simulated
	// memory node (Pool.Node set): the node's storage, merge-domain, and
	// shared-cache statistics.
	MemNode *memnode.Stats `json:"MemNode,omitempty"`
}

// PolicyKinds lists every comparable policy in presentation order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{Baseline, TMO, DAMON, FaaSMem, FaaSMemNoPucket, FaaSMemNoSemi}
}

// ValidPolicy reports whether kind names a known policy.
func ValidPolicy(kind PolicyKind) bool {
	for _, k := range PolicyKinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// BuildPolicy constructs the policy object for a kind, returning the FaaSMem
// handle when applicable (nil for the baselines). Unknown kinds panic; gate
// external input with ValidPolicy.
func BuildPolicy(kind PolicyKind, coreCfg core.Config) (policy.Policy, *core.FaaSMem) {
	switch kind {
	case Baseline:
		return policy.NoOffload{}, nil
	case TMO:
		return policy.NewTMO(policy.TMOConfig{}), nil
	case DAMON:
		return policy.NewDAMON(policy.DAMONConfig{}), nil
	case FaaSMemNoPucket:
		coreCfg.DisablePucket = true
	case FaaSMemNoSemi:
		coreCfg.DisableSemiWarm = true
	case FaaSMem:
		// paper defaults
	default:
		panic(fmt.Sprintf("experiments: unknown policy %q", kind))
	}
	fm := core.New(coreCfg)
	return fm, fm
}

// RunScenario executes one scenario and collects its outcome.
func RunScenario(sc Scenario) Outcome {
	if sc.KeepAlive <= 0 {
		sc.KeepAlive = 10 * time.Minute
	}
	if sc.Duration <= 0 {
		var last simtime.Time
		for _, at := range sc.Invocations {
			if at > last {
				last = at
			}
		}
		sc.Duration = last + time.Second
	}
	pol, fm := BuildPolicy(sc.Policy, sc.CoreConfig)

	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{
		KeepAliveTimeout: sc.KeepAlive,
		Seed:             sc.Seed,
		Pool:             sc.Pool,
		Swap:             sc.Swap,
		Telemetry:        sc.Telemetry.OrDefault(),
	}, pol)
	fnID := sc.Profile.Name
	f := p.Register(fnID, sc.Profile)
	p.ScheduleInvocations(fnID, sc.Invocations)

	if fm != nil && sc.SeedHistory {
		ka := trace.SimulateKeepAlive(sc.Invocations, sc.Profile.ExecTime, sc.KeepAlive)
		fm.SeedReuseIntervals(fnID, ka.ReusedIntervals)
	}
	if sc.MemTimeline != nil {
		every := sc.MemSampleEvery
		if every <= 0 {
			every = 10 * time.Second
		}
		simtime.NewSampler(e, every, func(from, to simtime.Time) {
			mb := metrics.MB(p.NodeLocalBytes())
			for at := from; at <= to; at += every {
				sc.MemTimeline.Append(at, mb)
			}
		})
	}

	horizon := sc.Duration + sc.KeepAlive
	e.RunUntil(horizon)

	st := f.Stats()
	out := Outcome{
		Policy:            sc.Policy,
		AvgLocalMB:        p.NodeLocalAvg() / 1e6,
		PeakLocalMB:       metrics.MB(p.NodeLocalPeak()),
		AvgRemoteMB:       p.NodeRemoteAvg() / 1e6,
		AvgLat:            st.Latency.Mean(),
		P50:               st.Latency.P50(),
		P95:               st.Latency.P95(),
		P99:               st.Latency.P99(),
		Requests:          st.Requests,
		ColdStarts:        st.ColdStarts,
		WarmStarts:        st.WarmStarts,
		SemiWarmStarts:    st.SemiWarmStarts,
		FaultPages:        st.FaultPages,
		RuntimeFaultPages: st.RuntimeFaultPages,
		OffloadedMB:       metrics.MB(p.Pool().Meter(rmem.Offload).Total()),
		RecalledMB:        metrics.MB(p.Pool().Meter(rmem.Recall).Total()),
		OffloadBWMBps:     p.Pool().Meter(rmem.Offload).Average(e.Now()) / 1e6,
		RecallBWMBps:      p.Pool().Meter(rmem.Recall).Average(e.Now()) / 1e6,
		LiveAvg:           p.LiveContainersAvg(),
	}
	if fm != nil {
		out.CoreStats = fm.Stats()
	}
	if p.Pool().FaultsPlanned() {
		rec := p.Recovery()
		out.Recovery = &rec
	}
	if mn := p.Pool().Node(); mn != nil {
		st := mn.Stats()
		out.MemNode = &st
	}
	return out
}

// HighLoadInvocations synthesizes a bursty high-load request timeline for
// one function (§8.2's high-load traces "often exhibit a sudden increase and
// decrease").
func HighLoadInvocations(d time.Duration, seed int64) []simtime.Time {
	return trace.GenerateFunction("hl", d, 6*time.Second, true, seed).Invocations
}

// LowLoadInvocations synthesizes a low-load request timeline.
func LowLoadInvocations(d time.Duration, seed int64) []simtime.Time {
	return trace.GenerateFunction("ll", d, 90*time.Second, false, seed).Invocations
}

// writeTable renders a fixed-width column table for the experiment printers;
// fixed formats keep the output diff-able for EXPERIMENTS.md.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = cell + strings.Repeat(" ", widths[i]-len(cell))
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
