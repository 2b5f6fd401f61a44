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
// Every accepted /run and /replay has a bounded cost. A /run body is an
// experiments.Spec: its duration_sec and keep_alive_sec are each at most
// 24 h and duration_sec/mean_gap_sec at most 200,000 invocations. A /replay
// trace spans at most 24 h and holds at most 200,000 invocations, and its
// keep_alive_sec is at most 24 h; slice a longer trace. Anything past a
// bound is a 400 before any trace is generated or replayed.
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

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

// RunRequest is the POST /run body. Its defaults and bounds, and the run
// it builds, are experiments.Spec's.
type RunRequest = experiments.Spec

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
// hub every simulation run reports into, the gateway's own request
// counters, and the free list of reply buffers.
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
	// free holds idle replies for reuse (see reply.go).
	free chan *reply
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
		free:        make(chan *reply, replyFree),
	}
}

// Handler builds the gateway's HTTP handler.
func Handler() http.Handler { return newServer().handler() }

// handler routes every endpoint to s.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /attrib", s.handleAttrib)
	mux.HandleFunc("GET /timeline", s.handleTimeline)
	mux.HandleFunc("GET /flight", s.handleFlight)
	mux.HandleFunc("GET /exemplars", s.handleExemplars)
	mux.HandleFunc("GET /flows", s.handleFlows)
	mux.HandleFunc("GET /benchmarks", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, workload.Profiles())
	})
	mux.HandleFunc("GET /policies", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, experiments.PolicyKinds())
	})
	mux.HandleFunc("GET /experiments", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, experiments.Names())
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
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.runs.Inc()
	if req.Workflow != "" {
		row := experiments.RunWorkflowCell(experiments.StatefulOptions{
			Runs: req.WorkflowRuns,
			Seed: req.Seed,
		}, req.Workflow, req.StateMode == "pool", req.FanoutWidth, 0)
		s.writeJSON(w, http.StatusOK, WorkflowRunResponse{
			Workflow: req.Workflow,
			Mode:     req.StateMode,
			Row:      row,
		})
		return
	}
	out := experiments.RunScenario(req.Scenario(s.tel))
	s.writeJSON(w, http.StatusOK, RunResponse{
		Bench:    req.Bench,
		Policy:   req.Policy,
		Requests: out.Requests,
		Outcome:  out,
	})
}

// handleMetrics serves the registry as a Prometheus scrape target. Metric
// reads are atomic snapshots, so it is safe beside running simulations.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeText(w, "text/plain; version=0.0.4; charset=utf-8", func(rep *reply) {
		_ = telemetry.WritePrometheus(rep, s.tel.Reg)
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
	s.writeJSON(w, http.StatusOK, map[string]any{"experiment": e.Name, "seed": seed, "rows": rows})
}

// fail writes an error response and counts it.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
