package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/faasmem/faasmem/internal/experiments"
)

func do(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	rec := do(t, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestBenchmarksLists11(t *testing.T) {
	rec := do(t, http.MethodGet, "/benchmarks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var profiles []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 11 {
		t.Fatalf("profiles = %d, want 11", len(profiles))
	}
}

func TestPoliciesList(t *testing.T) {
	rec := do(t, http.MethodGet, "/policies", "")
	var kinds []string
	if err := json.Unmarshal(rec.Body.Bytes(), &kinds); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 6 {
		t.Fatalf("policies = %v", kinds)
	}
}

func TestRunScenario(t *testing.T) {
	rec := do(t, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":120,"mean_gap_sec":10,"seed":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bench != "json" || resp.Policy != "faasmem" {
		t.Fatalf("echo = %+v", resp)
	}
	if resp.Requests == 0 {
		t.Fatal("no requests executed")
	}
	if resp.Outcome.AvgLocalMB <= 0 {
		t.Fatal("outcome missing memory stats")
	}
}

func TestRunDefaults(t *testing.T) {
	rec := do(t, http.MethodPost, "/run", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bench != "web" || resp.Policy != "faasmem" {
		t.Fatalf("defaults = %+v", resp)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []string{
		`{"bench":"nope"}`,
		`{"policy":"nope"}`,
		`{"duration_sec":999999999}`,
		`{"bench":"json","duration_sec":2001,"mean_gap_sec":0.01}`,
		`not json`,
		`{"keep_alive_sec":86401}`,
		`{"keep_alive_sec":1e10}`,
	}
	for i, body := range cases {
		rec := do(t, http.MethodPost, "/run", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, rec.Code)
		}
	}
	// The invocation ceiling names its limit.
	rec := do(t, http.MethodPost, "/run", cases[3])
	if !strings.Contains(rec.Body.String(), "limit 200000") {
		t.Errorf("ceiling error = %s, want it to name the limit", rec.Body.String())
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	body := `{"bench":"json","policy":"faasmem","duration_sec":120,"seed":9}`
	a := do(t, http.MethodPost, "/run", body).Body.String()
	b := do(t, http.MethodPost, "/run", body).Body.String()
	if a != b {
		t.Fatal("identical requests returned different outcomes")
	}
}

func TestExperimentEndpoint(t *testing.T) {
	rec := do(t, http.MethodPost, "/experiments/fig4", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Experiment string           `json:"experiment"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "fig4" || len(resp.Rows) != 6 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestExperimentSeedParam(t *testing.T) {
	rec := do(t, http.MethodPost, "/experiments/fig9?seed=7", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, q := range []string{"zz", "7zz", "7.5", "0x10"} {
		bad := do(t, http.MethodPost, "/experiments/fig9?seed="+q, "")
		if bad.Code != http.StatusBadRequest {
			t.Errorf("seed=%s status = %d, want 400", q, bad.Code)
		}
	}
}

func TestExperimentUnknown(t *testing.T) {
	rec := do(t, http.MethodPost, "/experiments/fig99", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

func TestReplayEndpoint(t *testing.T) {
	body := `{
		"trace": {"duration": 60000000000, "functions": [
			{"id": "a", "invocations": [0, 30000000000]},
			{"id": "b", "invocations": [1000000000]}
		]},
		"profile": "json",
		"policy": "faasmem",
		"seed": 5
	}`
	rec := do(t, http.MethodPost, "/replay", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ReplayResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Functions != 2 || resp.Requests != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.AvgLocalMB <= 0 {
		t.Fatal("missing memory stats")
	}
	if len(resp.Recent) != 3 {
		t.Fatalf("recent records = %d, want 3", len(resp.Recent))
	}
}

// TestReplayFeedsEverySink pins that POST /replay records into the same
// service-lifetime sinks as /run: spans, timeline, flows and exemplars all
// grow, so /exemplars never lags /timeline after a replay.
func TestReplayFeedsEverySink(t *testing.T) {
	h := Handler()
	var sizes struct {
		Attrib struct {
			Overall struct {
				N int `json:"n"`
			} `json:"overall"`
		}
		Timeline struct {
			Rows []json.RawMessage `json:"rows"`
		}
		Flows struct {
			Flows []json.RawMessage `json:"flows"`
		}
		Exemplars struct {
			Cells []json.RawMessage `json:"cells"`
		}
	}
	measure := func() [4]int {
		t.Helper()
		for path, v := range map[string]any{
			"/attrib?format=json":   &sizes.Attrib,
			"/timeline?format=json": &sizes.Timeline,
			"/flows":                &sizes.Flows,
			"/exemplars":            &sizes.Exemplars,
		} {
			rec := doOn(t, h, http.MethodGet, path, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, rec.Code)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return [4]int{sizes.Attrib.Overall.N, len(sizes.Timeline.Rows),
			len(sizes.Flows.Flows), len(sizes.Exemplars.Cells)}
	}
	before := measure()
	rec := doOn(t, h, http.MethodPost, "/replay", `{
		"trace": {"duration": 600000000000, "functions": [
			{"id": "a", "invocations": [0, 30000000000, 200000000000]},
			{"id": "b", "invocations": [1000000000, 400000000000]}
		]},
		"profile": "web", "policy": "faasmem", "keep_alive_sec": 300, "seed": 5
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/replay status = %d: %s", rec.Code, rec.Body.String())
	}
	after := measure()
	for i, name := range []string{"/attrib invocations", "/timeline rows", "/flows rows", "/exemplars cells"} {
		if after[i] <= before[i] {
			t.Errorf("%s did not grow after a replay: %d -> %d", name, before[i], after[i])
		}
	}
}

func TestReplayValidation(t *testing.T) {
	cases := []struct {
		body string
		want string // substring of the error message, "" for any
	}{
		{`{}`, "missing trace"},
		{`{"trace": {"duration": -1}}`, ""},
		{`{"trace": {"duration": 60000000000, "functions": [{"id":"a","invocations":[0]}]}, "policy": "nope"}`,
			"(options: baseline,"},
		{`{"trace": {"duration": 60000000000, "functions": [{"id":"a","invocations":[0]}]}, "profile": "nope"}`,
			"(options: mix, bert,"},
		{`{"trace": {"duration": 60000000000, "functions": [{"id":"a","invocations":[0,1,2]}]}, "max_invocations": 2}`,
			"limit 2"},
		{`{"trace": {"duration": 60000000000, "functions": [{"id":"a","invocations":[0]}]}, "keep_alive_sec": 1e7}`,
			"keep_alive_sec 1e+07s too long (max 24h)"},
		{`{"trace": {"duration": 9000000000000000000, "functions": [{"id":"a","invocations":[0]}]}}`,
			"slice the trace"},
	}
	for i, tc := range cases {
		rec := do(t, http.MethodPost, "/replay", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, rec.Code)
			continue
		}
		if tc.want != "" && !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("case %d: body %q missing %q", i, rec.Body.String(), tc.want)
		}
	}
	// Bad policy and profile must be rejected before the trace is inspected.
	rec := do(t, http.MethodPost, "/replay", `{"policy": "nope"}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown policy") {
		t.Errorf("policy-only body: status %d, body %q", rec.Code, rec.Body.String())
	}
	// Both 24 h bounds are inclusive: cmd/tracegen's default trace spans
	// exactly 24 h.
	rec = do(t, http.MethodPost, "/replay",
		`{"trace": {"duration": 86400000000000, "functions": [{"id":"a","invocations":[0]}]}, "keep_alive_sec": 86400}`)
	if rec.Code != http.StatusOK {
		t.Errorf("24 h trace and keep-alive: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestRunBodyCap pins the /run body cap: a body past it is a 413, while a
// body padded to just under it still decodes and is validated as usual.
func TestRunBodyCap(t *testing.T) {
	big := `{"bench": "` + strings.Repeat("a", maxRunBody) + `"}`
	if rec := do(t, http.MethodPost, "/run", big); rec.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized /run: status %d, body %.200q", rec.Code, rec.Body.String())
	}
	padded := `{"bench": "nope"` + strings.Repeat(" ", maxRunBody-100) + `}`
	if rec := do(t, http.MethodPost, "/run", padded); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "unknown bench") {
		t.Fatalf("padded /run under the cap: status %d, body %.200q", rec.Code, rec.Body.String())
	}
}

// TestReplayBodyCap pins the /replay body cap: a trace body past it is a
// 413 before any of it is validated or replayed.
func TestReplayBodyCap(t *testing.T) {
	big := `{"trace": {"duration": 60000000000, "functions": [{"id": "a", "invocations": [` +
		strings.Repeat("0, ", maxReplayBody/3) + `0]}]}}`
	if rec := do(t, http.MethodPost, "/replay", big); rec.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized /replay: status %d, body %.200q", rec.Code, rec.Body.String())
	}
}

func TestReplayMemNode(t *testing.T) {
	body := `{
		"trace": {"duration": 180000000000, "functions": [
			{"id": "a", "invocations": [0, 20000000000, 40000000000]},
			{"id": "b", "invocations": [1000000000, 50000000000]}
		]},
		"profile": "json",
		"policy": "faasmem",
		"seed": 5,
		"mem_node": {"dram_mb": 64, "spill_mb": 64}
	}`
	rec := do(t, http.MethodPost, "/replay", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ReplayResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MemNode == nil {
		t.Fatal("mem_node stats missing from response")
	}
	if resp.OffloadedMB > 0 && resp.MemNode.LogicalPeakMB <= 0 {
		t.Fatalf("offloaded %f MB but logical peak %f", resp.OffloadedMB, resp.MemNode.LogicalPeakMB)
	}
	if resp.MemNode.ResidentPeakMB > resp.MemNode.LogicalPeakMB {
		t.Fatalf("resident peak %f exceeds logical peak %f",
			resp.MemNode.ResidentPeakMB, resp.MemNode.LogicalPeakMB)
	}
	// Without the mem_node block, the response must omit the stats.
	plain := do(t, http.MethodPost, "/replay", `{
		"trace": {"duration": 60000000000, "functions": [{"id":"a","invocations":[0]}]}
	}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain replay status = %d: %s", plain.Code, plain.Body.String())
	}
	if strings.Contains(plain.Body.String(), "logical_peak_mb") {
		t.Fatal("plain replay unexpectedly reported mem_node stats")
	}
}

func TestExperimentsList(t *testing.T) {
	rec := do(t, http.MethodGet, "/experiments", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var names []string
	if err := json.Unmarshal(rec.Body.Bytes(), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != len(experiments.Registry) {
		t.Fatalf("experiments = %d, want %d", len(names), len(experiments.Registry))
	}
	if want := experiments.Names(); !slices.Equal(names, want) {
		t.Fatalf("GET /experiments = %v, want the registry order %v", names, want)
	}
	// Every advertised name must actually dispatch.
	for _, n := range names {
		if n == "fig14" || n == "fig12" || n == "table1" || n == "fig13" ||
			strings.HasPrefix(n, "ext-") || n == "fig16" || n == "fig2" {
			continue // too slow for this smoke loop; covered elsewhere
		}
		r := do(t, http.MethodPost, "/experiments/"+n, "")
		if r.Code != http.StatusOK {
			t.Errorf("experiment %q: status %d", n, r.Code)
		}
	}
}

// TestRunFaultIntensity checks the fault-injection knobs on POST /run: an
// armed plan populates Outcome.Recovery, and an out-of-range intensity is a
// 400, not a silent clamp.
func TestRunFaultIntensity(t *testing.T) {
	rec := do(t, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":240,"mean_gap_sec":5,"seed":3,"fault_intensity":1,"fault_seed":7}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome.Recovery == nil {
		t.Fatal("fault_intensity=1 run returned no recovery stats")
	}
	if got := resp.Outcome.Recovery.DoneNormal + resp.Outcome.Recovery.DoneRescheduled +
		resp.Outcome.Recovery.DoneReinit; got != resp.Requests {
		t.Fatalf("completion classes %d != requests %d", got, resp.Requests)
	}

	for _, bad := range []string{
		`{"bench":"json","fault_intensity":1.5}`,
		`{"bench":"json","fault_intensity":-0.1}`,
	} {
		if r := do(t, http.MethodPost, "/run", bad); r.Code != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400", bad, r.Code)
		}
	}

	// Intensity 0 must leave the plan unarmed: no Recovery block at all.
	rec = do(t, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":120,"mean_gap_sec":10,"seed":3}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome.Recovery != nil {
		t.Fatalf("fault-free run returned recovery stats: %+v", resp.Outcome.Recovery)
	}
}

// TestRunWorkflow checks the stateful-workflow knobs on POST /run: a
// workflow request runs the DAG in both state modes, pool mode takes the
// region path, and the response keeps the JSON charset contract.
func TestRunWorkflow(t *testing.T) {
	rec := do(t, http.MethodPost, "/run",
		`{"workflow":"fanout","state_mode":"pool","workflow_runs":2,"fanout_width":8,"seed":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	var resp WorkflowRunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workflow != "fanout" || resp.Mode != "pool" {
		t.Fatalf("echo = %+v", resp)
	}
	r := resp.Row
	if r.Completed != 2 || r.Runs != 2 {
		t.Fatalf("completed %d of %d runs", r.Completed, r.Runs)
	}
	if r.Width != 8 || r.Regions == 0 || r.ShareReadMB == 0 {
		t.Fatalf("pool run took no region path: %+v", r)
	}
	if !r.AuditOK || !r.Drained {
		t.Fatalf("audit/drain violated: %+v", r)
	}

	rec = do(t, http.MethodPost, "/run", `{"workflow":"fanout","state_mode":"reinit","workflow_runs":2,"seed":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("reinit status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Row.Regions != 0 || resp.Row.Reinits == 0 {
		t.Fatalf("reinit run touched the pool state path: %+v", resp.Row)
	}
}

// TestRunWorkflowValidation pins the 400s on the stateful /run knobs: out of
// range values are rejected with the valid options listed, not clamped.
func TestRunWorkflowValidation(t *testing.T) {
	cases := []struct {
		body string
		want string // substring of the error message
	}{
		{`{"workflow":"nope"}`, "(options: pipeline,"},
		{`{"workflow":"fanout","state_mode":"storage"}`, "(options: pool, reinit)"},
		{`{"workflow":"fanout","fanout_width":65}`, "out of range [0, 64]"},
		{`{"workflow":"fanout","fanout_width":-1}`, "out of range [0, 64]"},
		{`{"workflow":"fanout","workflow_runs":101}`, "out of range [0, 100]"},
	}
	for i, tc := range cases {
		rec := do(t, http.MethodPost, "/run", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400: %s", i, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("case %d: body %q missing %q", i, rec.Body.String(), tc.want)
		}
	}
}

// TestRunWorkflowDeterministicAcrossCalls pins that identical workflow
// requests produce byte-identical responses.
func TestRunWorkflowDeterministicAcrossCalls(t *testing.T) {
	body := `{"workflow":"pipeline","state_mode":"pool","workflow_runs":2,"seed":9}`
	a := do(t, http.MethodPost, "/run", body).Body.String()
	b := do(t, http.MethodPost, "/run", body).Body.String()
	if a != b {
		t.Fatal("identical workflow requests returned different outcomes")
	}
}

// TestRunMergeKnobs checks the merge-domain knobs on POST /run: setting
// merge_scope backs the pool with a memory node whose stats land in the
// outcome, and the default request keeps the node (and its JSON) out entirely.
func TestRunMergeKnobs(t *testing.T) {
	rec := do(t, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":240,"mean_gap_sec":5,"bursty":true,"seed":3,"merge_scope":"tenant","cache_mb":64}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome.MemNode == nil {
		t.Fatal("merge_scope run returned no memory-node stats")
	}
	if resp.Outcome.MemNode.DedupHitPages == 0 {
		t.Fatalf("bursty scale-out produced no dedup fan-in: %+v", resp.Outcome.MemNode)
	}

	// Without the knobs, no node is attached and the response omits the block.
	plain := do(t, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":120,"seed":3}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status = %d: %s", plain.Code, plain.Body.String())
	}
	if strings.Contains(plain.Body.String(), "MemNode") {
		t.Fatal("plain run unexpectedly reported memory-node stats")
	}
}

// TestRunMergeValidation pins the 400s on the merge knobs: an unknown scope
// lists the valid options, and cache_mb is range-checked rather than clamped.
func TestRunMergeValidation(t *testing.T) {
	cases := []struct {
		body string
		want string // substring of the error message
	}{
		{`{"bench":"json","merge_scope":"global"}`, "(options: function, tenant, cross-tenant)"},
		{`{"bench":"json","cache_mb":-1}`, "out of range [0, 16384]"},
		{`{"bench":"json","cache_mb":16385}`, "out of range [0, 16384]"},
	}
	for i, tc := range cases {
		rec := do(t, http.MethodPost, "/run", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400: %s", i, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("case %d: body %q missing %q", i, rec.Body.String(), tc.want)
		}
	}
}

// TestExperimentMerge smoke-runs the ext-merge endpoint and checks the
// isolation verdict in every row.
func TestExperimentMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep too slow for -short")
	}
	rec := do(t, http.MethodPost, "/experiments/ext-merge?seed=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	var resp struct {
		Experiment string           `json:"experiment"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "ext-merge" || len(resp.Rows) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	for _, row := range resp.Rows {
		for _, key := range []string{"scope", "write_ratio", "amplification", "merged_pages", "isolation_ok"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("row missing %q: %v", key, row)
			}
		}
		if ok, _ := row["isolation_ok"].(bool); !ok {
			t.Fatalf("isolation violated in row %v", row)
		}
	}
}

// TestExperimentStateful smoke-runs the ext-stateful endpoint.
func TestExperimentStateful(t *testing.T) {
	rec := do(t, http.MethodPost, "/experiments/ext-stateful?seed=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	var resp struct {
		Experiment string           `json:"experiment"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "ext-stateful" || len(resp.Rows) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	for _, row := range resp.Rows {
		for _, key := range []string{"workflow", "mode", "mean_run_sec", "p99_run_sec", "audit_ok", "drained"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("row missing %q: %v", key, row)
			}
		}
		if ok, _ := row["audit_ok"].(bool); !ok {
			t.Fatalf("flow audit violated in row %v", row)
		}
	}
}

// TestExperimentResilience smoke-runs the ext-resilience endpoint.
func TestExperimentResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep too slow for -short")
	}
	rec := do(t, http.MethodPost, "/experiments/ext-resilience?seed=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Experiment string           `json:"experiment"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "ext-resilience" || len(resp.Rows) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	for _, row := range resp.Rows {
		for _, key := range []string{"intensity", "submitted", "completed", "p99_sec", "cold_start_ratio"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("row missing %q: %v", key, row)
			}
		}
	}
}
