// Package gateway exposes the simulator over HTTP, mirroring the role of
// the paper artifact's gateway/test_server pair: a long-running service that
// accepts scenario requests, replays them on the discrete-event platform,
// and returns the outcome as JSON for scripted evaluation workflows.
//
// Endpoints:
//
//	GET  /healthz             liveness probe
//	GET  /metrics             live counters, Prometheus text format
//	GET  /attrib              latency attribution over recorded spans
//	                          (?format=text|json|prometheus)
//	GET  /timeline            per-window time-series rollups
//	                          (?format=text|json)
//	GET  /flight              flight-recorder dumps (fault windows, SLO burn)
//	GET  /exemplars           worst-K tail exemplars per (window, node, tenant)
//	GET  /flows               page byte-flow ledger + conservation audit
//	GET  /benchmarks          the 11 benchmark profiles
//	GET  /policies            available offloading policies
//	POST /run                 run one scenario (JSON body ≤ 1 MiB, JSON outcome)
//	POST /replay              replay a multi-function trace (tracegen JSON,
//	                          body ≤ 16 MiB)
//	GET  /experiments         the experiment registry's names, in order
//	POST /experiments/{name}  regenerate one figure/table (?seed=N, default 1)
//
// POST /experiments/{name} serves exactly the rows `cmd/experiments` prints
// for the same seed: both run the entry of experiments.Registry.
//
// The gateway instruments every run with a shared telemetry registry, so
// /metrics aggregates simulation counters (cold starts, offloaded pages,
// link traffic) across the service's lifetime alongside the gateway's own
// request counters. Metrics are atomics and handlers run concurrently; this
// is the one place the simulator's counters are read while runs mutate them.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// maxInvocations is the most invocations one /run or /replay may simulate,
// so every accepted request has a bounded host cost.
const maxInvocations = 200000

// RunRequest is the POST /run body.
type RunRequest struct {
	// Bench names one of the 11 benchmarks.
	Bench string `json:"bench"`
	// Policy is one of baseline, tmo, damon, faasmem,
	// faasmem-w/o-pucket, faasmem-w/o-semiwarm.
	Policy string `json:"policy"`
	// DurationSec is the trace window in seconds. Default 600.
	DurationSec float64 `json:"duration_sec"`
	// MeanGapSec is the mean request inter-arrival gap. Default 15.
	MeanGapSec float64 `json:"mean_gap_sec"`
	// Bursty selects Markov-modulated arrivals.
	Bursty bool `json:"bursty"`
	// KeepAliveSec is the keep-alive timeout. Default 600.
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

func (r *RunRequest) normalize() error {
	if r.Bench == "" {
		r.Bench = "web"
	}
	if workload.ByName(r.Bench) == nil {
		return fmt.Errorf("unknown benchmark %q (options: %s)", r.Bench, strings.Join(workload.Names(), ", "))
	}
	if r.Policy == "" {
		r.Policy = string(experiments.FaaSMem)
	}
	if !experiments.ValidPolicy(experiments.PolicyKind(r.Policy)) {
		return fmt.Errorf("unknown policy %q", r.Policy)
	}
	if r.DurationSec <= 0 {
		r.DurationSec = 600
	}
	if r.DurationSec > 24*3600 {
		return fmt.Errorf("duration %gs too long (max 24h)", r.DurationSec)
	}
	if r.MeanGapSec <= 0 {
		r.MeanGapSec = 15
	}
	if r.KeepAliveSec <= 0 {
		r.KeepAliveSec = 600
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.FaultIntensity < 0 || r.FaultIntensity > 1 {
		return fmt.Errorf("fault_intensity %g out of range [0, 1]", r.FaultIntensity)
	}
	if r.FaultSeed == 0 {
		r.FaultSeed = r.Seed
	}
	if r.Workflow != "" {
		if _, err := workload.WorkflowByName(r.Workflow); err != nil {
			return fmt.Errorf("unknown workflow %q (options: %s)", r.Workflow, strings.Join(workload.WorkflowNames(), ", "))
		}
	} else if n := r.DurationSec / r.MeanGapSec; n > maxInvocations {
		return fmt.Errorf("duration_sec/mean_gap_sec asks for %.0f invocations, limit %d", n, maxInvocations)
	}
	switch r.StateMode {
	case "":
		r.StateMode = "pool"
	case "pool", "reinit":
	default:
		return fmt.Errorf("unknown state_mode %q (options: pool, reinit)", r.StateMode)
	}
	if r.WorkflowRuns < 0 || r.WorkflowRuns > 100 {
		return fmt.Errorf("workflow_runs %d out of range [0, 100]", r.WorkflowRuns)
	}
	if r.WorkflowRuns == 0 {
		r.WorkflowRuns = 4
	}
	if r.FanoutWidth < 0 || r.FanoutWidth > 64 {
		return fmt.Errorf("fanout_width %d out of range [0, 64]", r.FanoutWidth)
	}
	var err error
	if r.mergeScope, err = memnode.ParseMergeScope(r.MergeScope); err != nil {
		return err
	}
	if r.CacheMB < 0 || r.CacheMB > 16384 {
		return fmt.Errorf("cache_mb %d out of range [0, 16384]", r.CacheMB)
	}
	return nil
}

// RunResponse is the POST /run result.
type RunResponse struct {
	Bench    string              `json:"bench"`
	Policy   string              `json:"policy"`
	Requests int                 `json:"requests"`
	Outcome  experiments.Outcome `json:"outcome"`
}

// WorkflowRunResponse is the POST /run result for workflow requests.
type WorkflowRunResponse struct {
	Workflow string                  `json:"workflow"`
	Mode     string                  `json:"mode"`
	Row      experiments.StatefulRow `json:"row"`
}

// server holds the gateway's shared state: the service-lifetime telemetry
// hub every simulation run reports into, plus the gateway's own request
// counters.
type server struct {
	// tel is passed whole into every /run and /replay simulation. Metrics
	// aggregate into its registry, and spans, timeline and exemplars
	// accumulate across runs; per-event tracing stays off (a
	// service-lifetime ring of interleaved runs would not be meaningful).
	tel         telemetry.Hub
	runs        *telemetry.Metric
	replays     *telemetry.Metric
	experiments *telemetry.Metric
	errors      *telemetry.Metric
}

func newServer() *server {
	reg := telemetry.NewRegistry()
	return &server{
		tel: telemetry.Hub{
			Reg:       reg,
			Spans:     span.NewRecorder(span.DefaultCapacity),
			Timeline:  timeseries.NewRecorder(timeseries.Config{}),
			Exemplars: exemplar.NewRecorder(exemplar.Config{}),
		},
		runs:        reg.Counter("gateway_runs_total", "POST /run scenarios executed"),
		replays:     reg.Counter("gateway_replays_total", "POST /replay traces executed"),
		experiments: reg.Counter("gateway_experiments_total", "POST /experiments regenerations executed"),
		errors:      reg.Counter("gateway_errors_total", "requests rejected with an error status"),
	}
}

// Handler builds the gateway's HTTP handler.
func Handler() http.Handler {
	s := newServer()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", telemetry.PrometheusHandler(s.tel.Reg))
	mux.HandleFunc("GET /attrib", s.handleAttrib)
	mux.HandleFunc("GET /timeline", s.handleTimeline)
	mux.HandleFunc("GET /flight", s.handleFlight)
	mux.HandleFunc("GET /exemplars", s.handleExemplars)
	mux.HandleFunc("GET /flows", s.handleFlows)
	mux.HandleFunc("GET /benchmarks", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, workload.Profiles())
	})
	mux.HandleFunc("GET /policies", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, experiments.PolicyKinds())
	})
	mux.HandleFunc("GET /experiments", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, experiments.Names())
	})
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /replay", s.handleReplay)
	mux.HandleFunc("POST /experiments/{name}", s.handleExperiment)
	return mux
}

// Request body caps. A /run body is a handful of scalar fields; a /replay
// body carries a whole trace, sized so a trace at the replay invocation
// ceiling fits with room for indentation.
const (
	maxRunBody    = 1 << 20
	maxReplayBody = 16 << 20
)

// decodeBody decodes the JSON request body into v, reading at most limit
// bytes. On failure it writes the error response — 413 for an oversized
// body, 400 for any other decode error — and returns false.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.fail(w, status, fmt.Errorf("decode request: %w", err))
	return false
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeBody(w, r, maxRunBody, &req) {
		return
	}
	if err := req.normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.runs.Inc()
	if req.Workflow != "" {
		row := experiments.RunWorkflowCell(experiments.StatefulOptions{
			Runs: req.WorkflowRuns,
			Seed: req.Seed,
		}, req.Workflow, req.StateMode == "pool", req.FanoutWidth, 0)
		writeJSON(w, http.StatusOK, WorkflowRunResponse{
			Workflow: req.Workflow,
			Mode:     req.StateMode,
			Row:      row,
		})
		return
	}
	duration := time.Duration(req.DurationSec * float64(time.Second))
	keepAlive := time.Duration(req.KeepAliveSec * float64(time.Second))
	fn := trace.GenerateFunction(req.Bench, duration,
		time.Duration(req.MeanGapSec*float64(time.Second)), req.Bursty, req.Seed)
	sc := experiments.Scenario{
		Profile:     workload.ByName(req.Bench),
		Invocations: fn.Invocations,
		Duration:    duration,
		KeepAlive:   keepAlive,
		Policy:      experiments.PolicyKind(req.Policy),
		SeedHistory: true,
		Seed:        req.Seed,
		Telemetry:   s.tel,
	}
	if req.MergeScope != "" || req.CacheMB > 0 {
		sc.Pool.Node = &memnode.Config{
			MergeScope: req.mergeScope,
			MergeOptIn: req.MergeOptIn,
			CacheBytes: int64(req.CacheMB) << 20,
		}
	}
	if req.FaultIntensity > 0 {
		sc.Pool.Faults = faultinject.New(faultinject.Config{
			Horizon:   duration + keepAlive,
			Intensity: req.FaultIntensity,
			Seed:      req.FaultSeed,
		})
	}
	out := experiments.RunScenario(sc)
	writeJSON(w, http.StatusOK, RunResponse{
		Bench:    req.Bench,
		Policy:   req.Policy,
		Requests: out.Requests,
		Outcome:  out,
	})
}

// handleExperiment regenerates one registry experiment, at the paper scale
// the CLI runs, and returns its rows as JSON.
func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var seed int64 = 1
	if q := r.URL.Query().Get("seed"); q != "" {
		var err error
		if seed, err = strconv.ParseInt(q, 10, 64); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", q))
			return
		}
	}
	s.experiments.Inc()
	sel, err := experiments.Select([]string{r.PathValue("name")})
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	e := sel[0]
	rows, _ := e.Run(io.Discard, seed)
	writeJSON(w, http.StatusOK, map[string]any{"experiment": e.Name, "seed": seed, "rows": rows})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// fail writes an error response and counts it.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	writeError(w, status, err)
}
