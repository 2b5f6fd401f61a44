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
		writeJSON(w, http.StatusOK, WorkflowRunResponse{
			Workflow: req.Workflow,
			Mode:     req.StateMode,
			Row:      row,
		})
		return
	}
	out := experiments.RunScenario(req.Scenario(s.tel))
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

// writeJSON writes v as the reply: the bytes json.Encoder with
// SetIndent("", "  ") would write, without re-validating what json.Marshal
// has just produced. A value that does not marshal leaves the body empty,
// as the encoder would.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	// Indenting a row-shaped reply such as /flows or /timeline grows it
	// about 1.6×, so twice the compact size holds it without regrowing.
	_, _ = w.Write(appendIndent(make([]byte, 0, 2*len(b)), b))
}

// appendIndent appends src, compact JSON from json.Marshal, to dst indented
// as json.Indent(src, "", "  ") would, followed by a newline. It does not
// validate src: strings are copied verbatim, escapes included, and only the
// punctuation outside them is spaced out. Empty objects and arrays stay on
// one line.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(src))
			dst = append(dst, src[i:j]...)
			i = j - 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// newline appends a newline and depth levels of two-space indent.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// fail writes an error response and counts it.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	writeError(w, status, err)
}
