package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doOn issues a request against a specific handler so state (the shared
// timeline recorder) persists across calls within one test.
func doOn(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTimelineEmptyThenPopulated(t *testing.T) {
	h := Handler()

	rec := doOn(t, h, http.MethodGet, "/timeline", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty timeline status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "text/plain; charset=utf-8" {
		t.Errorf("text Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "timeline:") {
		t.Errorf("text body missing header: %s", rec.Body.String())
	}

	run := doOn(t, h, http.MethodPost, "/run",
		`{"bench":"json","duration_sec":120,"mean_gap_sec":5,"seed":3}`)
	if run.Code != http.StatusOK {
		t.Fatalf("/run status = %d: %s", run.Code, run.Body.String())
	}

	rec = doOn(t, h, http.MethodGet, "/timeline?format=json", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("json timeline status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("json Content-Type = %q", got)
	}
	var snap struct {
		WindowSec float64 `json:"window_sec"`
		Rows      []struct {
			Name string `json:"name"`
			Node string `json:"node"`
		} `json:"rows"`
		Summary []struct {
			Requests int64 `json:"requests"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.WindowSec != 1 {
		t.Errorf("window_sec = %v, want the 1s default", snap.WindowSec)
	}
	if len(snap.Rows) == 0 || len(snap.Summary) == 0 {
		t.Fatalf("timeline empty after /run: %d rows, %d summary windows",
			len(snap.Rows), len(snap.Summary))
	}
	var reqs int64
	for _, w := range snap.Summary {
		reqs += w.Requests
	}
	if reqs == 0 {
		t.Error("no requests rolled up after /run")
	}

	bad := doOn(t, h, http.MethodGet, "/timeline?format=xml", "")
	if bad.Code != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", bad.Code)
	}
}

func TestFlightEndpoint(t *testing.T) {
	h := Handler()
	rec := doOn(t, h, http.MethodGet, "/flight", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/flight status = %d", rec.Code)
	}
	var resp struct {
		Dumps        []json.RawMessage `json:"dumps"`
		DumpsDropped int               `json:"dumps_dropped"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dumps == nil {
		t.Error("dumps is null, want [] on an idle gateway")
	}

	// A faulted run arms the plan's fault-window triggers on the shared
	// recorder; the dump list should grow.
	run := doOn(t, h, http.MethodPost, "/run",
		`{"bench":"json","duration_sec":300,"mean_gap_sec":5,"seed":3,"fault_intensity":1}`)
	if run.Code != http.StatusOK {
		t.Fatalf("/run status = %d: %s", run.Code, run.Body.String())
	}
	rec = doOn(t, h, http.MethodGet, "/flight", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Dumps) == 0 {
		t.Error("no flight dumps after a faulted run")
	}
}

// TestFlightNoStaleFaultDumps runs a faulted /run whose plan has a window
// starting after the run ends, then an unfaulted one that runs past that
// start. The service-lifetime recorder must not carry the first run's
// uncrossed fault-window start into the second run, whose clock restarts at
// zero: the second run takes no fault-window dump.
func TestFlightNoStaleFaultDumps(t *testing.T) {
	h := Handler()
	faultDumps := func() int {
		rec := doOn(t, h, http.MethodGet, "/flight", "")
		var resp struct {
			Dumps []struct {
				Trigger string `json:"trigger"`
			} `json:"dumps"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range resp.Dumps {
			if d.Trigger == "fault-window" {
				n++
			}
		}
		return n
	}
	for i, body := range []string{
		`{"bench":"json","duration_sec":60.9,"keep_alive_sec":60,"mean_gap_sec":30,"fault_intensity":1,"seed":4}`,
		`{"bench":"json","duration_sec":3000,"keep_alive_sec":60,"mean_gap_sec":30,"seed":7}`,
	} {
		before := faultDumps()
		if run := doOn(t, h, http.MethodPost, "/run", body); run.Code != http.StatusOK {
			t.Fatalf("run %d: /run status = %d: %s", i+1, run.Code, run.Body.String())
		}
		if i == 1 {
			if got := faultDumps() - before; got != 0 {
				t.Fatalf("the unfaulted run took %d fault-window dumps", got)
			}
		}
	}
}

// TestContentTypesAndMethodNotAllowed pins the observability surface's HTTP
// conformance: explicit charsets on every Content-Type, and 405 (not 404)
// with an Allow header when the path exists but the method is wrong.
func TestContentTypesAndMethodNotAllowed(t *testing.T) {
	h := Handler()

	headers := []struct {
		path, want string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/attrib", "text/plain; charset=utf-8"},
		{"/attrib?format=prometheus", "text/plain; version=0.0.4; charset=utf-8"},
		{"/attrib?format=json", "application/json; charset=utf-8"},
		{"/timeline", "text/plain; charset=utf-8"},
		{"/flight", "application/json; charset=utf-8"},
		{"/exemplars", "application/json; charset=utf-8"},
		{"/flows", "application/json; charset=utf-8"},
		{"/healthz", "application/json; charset=utf-8"},
	}
	for _, tc := range headers {
		rec := doOn(t, h, http.MethodGet, tc.path, "")
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s status = %d", tc.path, rec.Code)
			continue
		}
		if got := rec.Header().Get("Content-Type"); got != tc.want {
			t.Errorf("GET %s Content-Type = %q, want %q", tc.path, got, tc.want)
		}
	}

	wrongMethod := []struct {
		method, path string
	}{
		{http.MethodPost, "/metrics"},
		{http.MethodPost, "/attrib"},
		{http.MethodPost, "/timeline"},
		{http.MethodPost, "/flight"},
		{http.MethodPost, "/exemplars"},
		{http.MethodPost, "/flows"},
		{http.MethodGet, "/run"},
		{http.MethodGet, "/replay"},
		{http.MethodGet, "/experiments/ext-stateful"},
		{http.MethodGet, "/experiments/ext-merge"},
		{http.MethodDelete, "/healthz"},
	}
	for _, tc := range wrongMethod {
		rec := doOn(t, h, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s: 405 without an Allow header", tc.method, tc.path)
		}
	}
}
