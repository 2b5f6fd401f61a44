package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// oracleJSON is the JSON reply body as the gateway wrote it before replies
// were rendered into server-owned buffers: json.Marshal, then json.Indent,
// then a newline.
func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, b, "", "  "); err != nil {
		t.Fatal(err)
	}
	return append(out.Bytes(), '\n')
}

// oracleText renders a text reply straight into a fresh buffer.
func oracleText(t testing.TB, render func(*bytes.Buffer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// exporterOracles returns, for every exporter read, the reply body the
// oracle renders from s's sinks as they stand.
func exporterOracles(t testing.TB, s *server) map[string][]byte {
	tel := s.tel
	an := span.Analyze(tel.Spans.Invocations())
	flows := tel.Timeline.FlowRows()
	if flows == nil {
		flows = []timeseries.FlowRow{}
	}
	dumps := tel.Timeline.Dumps()
	if dumps == nil {
		dumps = []timeseries.Dump{}
	}
	cells := tel.Exemplars.Cells()
	if cells == nil {
		cells = []exemplar.Cell{}
	}
	return map[string][]byte{
		"/flows": oracleJSON(t, map[string]any{"flows": flows, "audit": timeseries.AuditFlows(tel.Timeline)}),
		"/timeline": oracleText(t, func(b *bytes.Buffer) error {
			return timeseries.WriteText(b, tel.Timeline)
		}),
		"/timeline?format=json": oracleJSON(t, timeseries.TakeSnapshot(tel.Timeline)),
		"/exemplars": oracleJSON(t, map[string]any{
			"window_sec": tel.Exemplars.Window().Seconds(),
			"k":          tel.Exemplars.K(),
			"cells":      cells,
		}),
		"/flight":                   oracleJSON(t, map[string]any{"dumps": dumps, "dumps_dropped": tel.Timeline.DumpsDropped()}),
		"/attrib":                   oracleText(t, func(b *bytes.Buffer) error { return span.WriteText(b, an) }),
		"/attrib?format=json":       oracleJSON(t, an),
		"/attrib?format=prometheus": oracleText(t, func(b *bytes.Buffer) error { return writeAttribPrometheus(b, an) }),
		"/metrics":                  oracleText(t, func(b *bytes.Buffer) error { return telemetry.WritePrometheus(b, tel.Reg) }),
		"/healthz":                  oracleJSON(t, map[string]string{"status": "ok"}),
		"/policies":                 oracleJSON(t, experiments.PolicyKinds()),
	}
}

// oracleRuns is a fixed list of /run bodies, one under a fault plan.
var oracleRuns = []string{
	`{"bench":"json","duration_sec":300,"mean_gap_sec":6,"bursty":true,"seed":1}`,
	`{"bench":"web","duration_sec":300,"mean_gap_sec":6,"bursty":true,"seed":2,"fault_intensity":0.3,"fault_seed":2}`,
	`{"bench":"image","duration_sec":120,"mean_gap_sec":10,"seed":3}`,
}

// oracleReplay replays a trace whose function IDs need JSON escaping, one
// of them only HTML escaping, so the flow ledger's tenant dimension goes
// through appendJSONString's slow path.
const oracleReplay = `{"trace": {"duration": 120000000000, "functions": [
	{"id": "a<b>&\"c\"\\\u00e9\u2028", "invocations": [0, 30000000000, 61000000000]},
	{"id": "html<b>&", "invocations": [1000000000, 90000000000]},
	{"id": "plain", "invocations": [2000000000, 91000000000]}
]}, "profile": "mix", "seed": 4, "mem_node": {"dram_mb": 64, "spill_mb": 64}}`

// TestRepliesMatchOracle requires every reply to be the oracle's bytes:
// each /run and /replay reply equals its value re-rendered by the oracle,
// and every exporter read equals the oracle's rendering of the sinks, twice
// over, with the smallest replies read between the largest so a reused
// buffer that is not reset, or is shared, shows.
func TestRepliesMatchOracle(t *testing.T) {
	s := newServer()
	h := s.handler()
	check := func(path string, rec *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: reply differs from the oracle\n got %d bytes: %.300q\nwant %d bytes: %.300q",
				path, rec.Body.Len(), rec.Body.Bytes(), len(want), want)
		}
	}
	for _, body := range oracleRuns {
		rec := doOn(t, h, http.MethodPost, "/run", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/run %s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		check("/run", rec, oracleJSON(t, resp))
	}
	rec := doOn(t, h, http.MethodPost, "/replay", oracleReplay)
	if rec.Code != http.StatusOK {
		t.Fatalf("/replay: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ReplayResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	check("/replay", rec, oracleJSON(t, resp))

	want := exporterOracles(t, s)
	if !bytes.Contains(want["/flows"], []byte(`"a\u003cb\u003e\u0026\"c\"\\é\u2028"`)) ||
		!bytes.Contains(want["/flows"], []byte(`"html\u003cb\u003e\u0026"`)) {
		t.Fatalf("/flows oracle lacks the escaped replay tenant:\n%.2000s", want["/flows"])
	}
	paths := []string{
		"/timeline?format=json", "/flows", "/exemplars", "/timeline", "/attrib?format=json",
		"/metrics", "/attrib", "/attrib?format=prometheus", "/flight",
	}
	for round := 0; round < 2; round++ {
		for _, path := range paths {
			for _, p := range []string{path, "/healthz", "/policies"} {
				check(p, doOn(t, h, http.MethodGet, p, ""), want[p])
			}
		}
	}
	// An error reply counts in /metrics, so it comes last.
	check("/attrib?format=xml", doOn(t, h, http.MethodGet, "/attrib?format=xml", ""),
		oracleJSON(t, map[string]string{"error": `unknown format "xml" (want text, json, or prometheus)`}))
}

// TestRepliesConcurrent serves /run and every exporter at once (run it
// under -race). Once the runs finish, concurrent reads of each exporter
// must equal a serial read byte for byte, and the free list never holds
// more than its capacity.
func TestRepliesConcurrent(t *testing.T) {
	s := newServer()
	h := s.handler()
	paths := []string{
		"/flows", "/timeline", "/timeline?format=json", "/exemplars", "/flight",
		"/attrib", "/attrib?format=json", "/attrib?format=prometheus", "/metrics",
	}
	checkFree := func() {
		if n := len(s.free); n > replyFree {
			t.Errorf("free list holds %d replies, capacity %d", n, replyFree)
		}
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	var runs, reads sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		runs.Add(1)
		go func(i int) {
			defer runs.Done()
			body := fmt.Sprintf(`{"bench":%q,"duration_sec":60,"mean_gap_sec":5,"seed":%d,"fault_intensity":0.3}`,
				[]string{"json", "web"}[i%2], i+1)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader([]byte(body))))
			if rec.Code != http.StatusOK {
				t.Errorf("/run: status %d: %s", rec.Code, rec.Body.String())
			}
		}(i)
	}
	for _, path := range paths {
		reads.Add(1)
		go func(path string) {
			defer reads.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				get(path)
				checkFree()
			}
		}(path)
	}
	runs.Wait()
	close(done)
	reads.Wait()

	for _, path := range paths {
		want := get(path).Body.Bytes()
		var wg sync.WaitGroup
		for i := 0; i < 2*replyFree; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := get(path).Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("GET %s: a concurrent read (%d bytes) differs from the serial one (%d bytes)", path, len(got), len(want))
				}
				checkFree()
			}()
		}
		wg.Wait()
	}
}

// TestReplyFreeListBounds pins the free list's retention: it keeps at most
// replyFree replies, and drops a reply whose buffers grew past replyKeep.
func TestReplyFreeListBounds(t *testing.T) {
	s := newServer()
	for _, grow := range []func(*reply){
		func(rep *reply) { rep.raw = make([]byte, 0, replyKeep+1) },
		func(rep *reply) { rep.out = make([]byte, 0, replyKeep+1) },
	} {
		rep := s.takeReply()
		grow(rep)
		s.putReply(rep)
		if n := len(s.free); n != 0 {
			t.Fatalf("an oversized reply was kept: free list holds %d", n)
		}
	}
	for i := 0; i < replyFree+2; i++ {
		rep := &reply{raw: []byte("stale"), out: []byte("stale")}
		s.putReply(rep)
	}
	if n := len(s.free); n != replyFree {
		t.Fatalf("free list holds %d replies, want its capacity %d", n, replyFree)
	}
	if rep := s.takeReply(); len(rep.raw) != 0 || len(rep.out) != 0 {
		t.Fatalf("a kept reply was not emptied: raw %q, out %q", rep.raw, rep.out)
	}
}

// TestAttribUnknownFormatSkipsAnalysis pins that /attrib checks ?format
// before it analyzes a single span tree: the 400's allocations are small and
// do not grow with the spans recorded.
func TestAttribUnknownFormatSkipsAnalysis(t *testing.T) {
	allocs := func(h http.Handler) float64 {
		req := httptest.NewRequest(http.MethodGet, "/attrib?format=xml", nil)
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", rec.Code)
			}
		})
	}
	idle := allocs(Handler())
	s := newServer()
	h := s.handler()
	for _, body := range oracleRuns {
		if rec := doOn(t, h, http.MethodPost, "/run", body); rec.Code != http.StatusOK {
			t.Fatalf("/run: status %d", rec.Code)
		}
	}
	if n := len(s.tel.Spans.Invocations()); n < 100 {
		t.Fatalf("only %d span trees recorded", n)
	}
	busy := allocs(h)
	if busy > idle+1 || busy > 40 {
		t.Errorf("GET /attrib?format=xml: %.0f allocs with spans recorded, %.0f idle; want a small constant", busy, idle)
	}
}
