package experiments

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// MaxInvocations is the most invocations one run may simulate: a spec whose
// duration/gap asks for more is rejected, and a synthetic trace that
// overshoots it is cut there. The gateway's /replay shares it.
const MaxInvocations = 200000

// MaxHorizon bounds a run's trace duration and its keep-alive each, so the
// virtual time a run simulates (duration + keep-alive) is at most 48 h.
const MaxHorizon = 24 * time.Hour

// Spec is one run request: the gateway's POST /run body, and what
// faasmem-sim and faasmem-stat fill from their flags. Normalize holds every
// default and bound; Scenario builds the single-bench run. Each duration
// field is in seconds; a value under a nanosecond counts as unset.
type Spec struct {
	// Bench names one of the 11 benchmarks. Default web.
	Bench string `json:"bench"`
	// Policy is one of baseline, tmo, damon, faasmem,
	// faasmem-w/o-pucket, faasmem-w/o-semiwarm. Default faasmem.
	Policy string `json:"policy"`
	// DurationSec is the trace window in seconds. Default 600, max 24 h.
	DurationSec float64 `json:"duration_sec"`
	// MeanGapSec is the mean request inter-arrival gap. Default 15.
	MeanGapSec float64 `json:"mean_gap_sec"`
	// Bursty selects Markov-modulated arrivals.
	Bursty bool `json:"bursty"`
	// KeepAliveSec is the keep-alive timeout. Default 600, max 24 h.
	KeepAliveSec float64 `json:"keep_alive_sec"`
	// Seed drives all randomness. Default 1.
	Seed int64 `json:"seed"`
	// FaultIntensity in [0, 1] arms a seed-driven fault plan beneath the
	// remote-memory path (link flaps, pool crashes, tier storms, latency
	// spikes). 0 (the default) runs fault-free.
	FaultIntensity float64 `json:"fault_intensity"`
	// FaultSeed drives the fault schedule independently of Seed. Defaults
	// to Seed.
	FaultSeed int64 `json:"fault_seed"`
	// Workflow names a built-in workflow DAG; when set the run executes the
	// DAG (back-to-back, WorkflowRuns times) instead of a single-bench
	// scenario, and Bench/MeanGapSec/Bursty/Policy are ignored.
	Workflow string `json:"workflow"`
	// StateMode selects how the workflow passes intermediate state: "pool"
	// (shared regions on the memory pool, the default) or "reinit" (every
	// consumer re-derives its inputs — the stateless baseline).
	StateMode string `json:"state_mode"`
	// WorkflowRuns is the number of chained workflow runs. Default 4.
	WorkflowRuns int `json:"workflow_runs"`
	// FanoutWidth scales the workflow's replicated stages; 0 keeps the
	// shape's declared width. Max 64.
	FanoutWidth int `json:"fanout_width"`
	// MergeScope widens the pool-side page-merge domain: function, tenant,
	// or cross-tenant. Setting it (or CacheMB) backs the run's pool with a
	// simulated memory node and the outcome reports the node's stats.
	MergeScope string `json:"merge_scope"`
	// MergeOptIn lists tenants consenting to cross-tenant merging.
	MergeOptIn []string `json:"merge_opt_in"`
	// CacheMB sizes the node's shared multi-tenant cache tier. Max 16384.
	CacheMB int `json:"cache_mb"`

	mergeScope memnode.MergeScope
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Normalize applies the defaults and rejects an out-of-range spec before
// any trace is generated, so every accepted spec has a bounded cost.
func (s *Spec) Normalize() error {
	if s.Bench == "" {
		s.Bench = "web"
	}
	if workload.ByName(s.Bench) == nil {
		return fmt.Errorf("unknown benchmark %q (options: %s)", s.Bench, strings.Join(workload.Names(), ", "))
	}
	if s.Policy == "" {
		s.Policy = string(FaaSMem)
	}
	if !ValidPolicy(PolicyKind(s.Policy)) {
		return fmt.Errorf("unknown policy %q", s.Policy)
	}
	// Each bound is checked before the field is converted to a Duration,
	// which a huge value would overflow.
	if s.DurationSec > MaxHorizon.Seconds() {
		return fmt.Errorf("duration %gs too long (max 24h)", s.DurationSec)
	}
	if seconds(s.DurationSec) <= 0 {
		s.DurationSec = 600
	}
	if seconds(s.MeanGapSec) <= 0 {
		s.MeanGapSec = 15
	}
	if s.KeepAliveSec > MaxHorizon.Seconds() {
		return fmt.Errorf("keep_alive_sec %gs too long (max 24h)", s.KeepAliveSec)
	}
	if seconds(s.KeepAliveSec) <= 0 {
		s.KeepAliveSec = 600
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if !(s.FaultIntensity >= 0 && s.FaultIntensity <= 1) {
		return fmt.Errorf("fault_intensity %g out of range [0, 1]", s.FaultIntensity)
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = s.Seed
	}
	if s.Workflow != "" {
		if _, err := workload.WorkflowByName(s.Workflow); err != nil {
			return fmt.Errorf("unknown workflow %q (options: %s)", s.Workflow, strings.Join(workload.WorkflowNames(), ", "))
		}
	} else if n := s.DurationSec / s.MeanGapSec; n > MaxInvocations {
		return fmt.Errorf("duration_sec/mean_gap_sec asks for %.0f invocations, limit %d", n, MaxInvocations)
	}
	switch s.StateMode {
	case "":
		s.StateMode = "pool"
	case "pool", "reinit":
	default:
		return fmt.Errorf("unknown state_mode %q (options: pool, reinit)", s.StateMode)
	}
	if s.WorkflowRuns < 0 || s.WorkflowRuns > 100 {
		return fmt.Errorf("workflow_runs %d out of range [0, 100]", s.WorkflowRuns)
	}
	if s.WorkflowRuns == 0 {
		s.WorkflowRuns = 4
	}
	if s.FanoutWidth < 0 || s.FanoutWidth > 64 {
		return fmt.Errorf("fanout_width %d out of range [0, 64]", s.FanoutWidth)
	}
	var err error
	if s.mergeScope, err = memnode.ParseMergeScope(s.MergeScope); err != nil {
		return err
	}
	if s.CacheMB < 0 || s.CacheMB > 16384 {
		return fmt.Errorf("cache_mb %d out of range [0, 16384]", s.CacheMB)
	}
	return nil
}

// Scenario builds the single-bench run of a normalized spec, reporting
// into hub, on a synthetic arrival trace cut at MaxInvocations (a bursty
// trace, or a Poisson one by chance, can overshoot its mean of
// duration/gap).
func (s *Spec) Scenario(hub telemetry.Hub) Scenario {
	d := seconds(s.DurationSec)
	invocations := trace.GenerateFunction(s.Bench, d, seconds(s.MeanGapSec), s.Bursty, s.Seed).Invocations
	if len(invocations) > MaxInvocations {
		invocations = invocations[:MaxInvocations]
	}
	return s.ScenarioOn(workload.ByName(s.Bench), invocations, d, hub)
}

// ScenarioOn is Scenario on a given profile and request timeline of length
// d instead of the spec's bench and synthetic trace. The fault plan, when
// FaultIntensity > 0, spans d + keep-alive; the pool gets a memory node when
// MergeScope or CacheMB is set.
func (s *Spec) ScenarioOn(prof *workload.Profile, invocations []simtime.Time, d time.Duration, hub telemetry.Hub) Scenario {
	sc := Scenario{
		Profile:     prof,
		Invocations: invocations,
		Duration:    d,
		KeepAlive:   seconds(s.KeepAliveSec),
		Policy:      PolicyKind(s.Policy),
		SeedHistory: true,
		Seed:        s.Seed,
		Telemetry:   hub,
	}
	if s.MergeScope != "" || s.CacheMB > 0 {
		sc.Pool.Node = &memnode.Config{
			MergeScope: s.mergeScope,
			MergeOptIn: s.MergeOptIn,
			CacheBytes: int64(s.CacheMB) << 20,
		}
	}
	if s.FaultIntensity > 0 {
		sc.Pool.Faults = faultinject.New(faultinject.Config{
			Horizon:   d + sc.KeepAlive,
			Intensity: s.FaultIntensity,
			Seed:      s.FaultSeed,
		})
	}
	return sc
}

// Flags registers -bench, -policy, -duration, -gap, -bursty, -keepalive and
// -seed on fs, bound to the spec's fields. Each flag defaults to its field's
// current value, so a command sets its defaults by prefilling the spec.
func (s *Spec) Flags(fs *flag.FlagSet) {
	fs.StringVar(&s.Bench, "bench", s.Bench, "benchmark: "+strings.Join(workload.Names(), ", "))
	fs.StringVar(&s.Policy, "policy", s.Policy, "offloading policy")
	fs.Var((*secondsFlag)(&s.DurationSec), "duration", "trace `duration`")
	fs.Var((*secondsFlag)(&s.MeanGapSec), "gap", "mean inter-arrival gap `duration`")
	fs.BoolVar(&s.Bursty, "bursty", s.Bursty, "bursty (Markov-modulated) arrivals")
	fs.Var((*secondsFlag)(&s.KeepAliveSec), "keepalive", "keep-alive timeout `duration`")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// secondsFlag is a seconds field set from a duration flag such as "30m".
type secondsFlag float64

func (f *secondsFlag) String() string { return seconds(float64(*f)).String() }

func (f *secondsFlag) Set(v string) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return err
	}
	*f = secondsFlag(d.Seconds())
	return nil
}
