package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestExemplarsAndFlowsEndpoints pins the drill-down surface: both endpoints
// serve empty-but-non-null collections on an idle gateway and populate after
// a faulted /run, with the flow ledger carrying its conservation audit.
func TestExemplarsAndFlowsEndpoints(t *testing.T) {
	h := Handler()

	var exResp struct {
		WindowSec float64           `json:"window_sec"`
		K         int               `json:"k"`
		Cells     []json.RawMessage `json:"cells"`
	}
	rec := doOn(t, h, http.MethodGet, "/exemplars", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/exemplars status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exResp); err != nil {
		t.Fatal(err)
	}
	if exResp.Cells == nil {
		t.Error("cells is null, want [] on an idle gateway")
	}
	if exResp.WindowSec != 1 || exResp.K == 0 {
		t.Errorf("window_sec = %v, k = %d; want the 1s default and a nonzero K",
			exResp.WindowSec, exResp.K)
	}

	var flResp struct {
		Flows []struct {
			Flow   string `json:"flow"`
			Bytes  int64  `json:"bytes"`
			Window int64  `json:"window"`
		} `json:"flows"`
		Audit struct {
			OK     bool  `json:"ok"`
			Checks int64 `json:"checks"`
		} `json:"audit"`
	}
	rec = doOn(t, h, http.MethodGet, "/flows", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/flows status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &flResp); err != nil {
		t.Fatal(err)
	}
	if flResp.Flows == nil {
		t.Error("flows is null, want [] on an idle gateway")
	}

	run := doOn(t, h, http.MethodPost, "/run",
		`{"bench":"json","duration_sec":300,"mean_gap_sec":5,"seed":3,"fault_intensity":1}`)
	if run.Code != http.StatusOK {
		t.Fatalf("/run status = %d: %s", run.Code, run.Body.String())
	}

	rec = doOn(t, h, http.MethodGet, "/exemplars", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &exResp); err != nil {
		t.Fatal(err)
	}
	if len(exResp.Cells) == 0 {
		t.Error("no exemplar cells after a /run")
	}

	rec = doOn(t, h, http.MethodGet, "/flows", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &flResp); err != nil {
		t.Fatal(err)
	}
	if len(flResp.Flows) == 0 {
		t.Fatal("no flow rows after a /run")
	}
	var bytes int64
	for _, f := range flResp.Flows {
		bytes += f.Bytes
	}
	if bytes == 0 {
		t.Error("flow ledger rows carry zero bytes")
	}
	if !flResp.Audit.OK || flResp.Audit.Checks == 0 {
		t.Errorf("audit = %+v, want ok with nonzero checks after one run", flResp.Audit)
	}
}

// servedGateway returns a gateway that has served a fixed list of /run
// requests: bursty json and web runs alternating, every fourth under a fault
// plan, as a scraper finds a busy service.
func servedGateway(b *testing.B) http.Handler {
	h := Handler()
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"bench":%q,"duration_sec":300,"mean_gap_sec":6,"bursty":true,"seed":%d`,
			[]string{"json", "web"}[i%2], i+1)
		if i%4 == 3 {
			body += fmt.Sprintf(`,"fault_intensity":0.3,"fault_seed":%d`, i+1)
		}
		if rec := doOn(b, h, http.MethodPost, "/run", body+"}"); rec.Code != http.StatusOK {
			b.Fatalf("/run status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	return h
}

// benchmarkGet times one GET of path on a served gateway.
func benchmarkGet(b *testing.B, path string) {
	h := servedGateway(b)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s status = %d", path, rec.Code)
		}
	}
}

// BenchmarkGatewayFlows times one GET /flows on a served gateway: the
// ledger's rows rendered into the reply.
func BenchmarkGatewayFlows(b *testing.B) { benchmarkGet(b, "/flows") }

// BenchmarkGatewayTimeline times one GET /timeline on a served gateway: the
// per-window summary table rendered from the recorder's cells.
func BenchmarkGatewayTimeline(b *testing.B) { benchmarkGet(b, "/timeline") }
