package gateway

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrape issues one request against a shared handler (the do helper builds a
// fresh Handler per call, which would reset the metric registry between the
// run and the scrape).
func scrape(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in scrape:\n%s", name, text)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	h := Handler()

	rec := scrape(t, h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	before := rec.Body.String()
	if !strings.Contains(before, "# TYPE gateway_runs_total counter") {
		t.Fatalf("missing TYPE line:\n%s", before)
	}
	if v := metricValue(t, before, "gateway_runs_total"); v != 0 {
		t.Fatalf("gateway_runs_total before any run = %d", v)
	}

	run := scrape(t, h, http.MethodPost, "/run",
		`{"bench":"json","policy":"faasmem","duration_sec":120,"mean_gap_sec":10,"seed":3,`+
			`"merge_scope":"tenant","fault_intensity":0.5}`)
	if run.Code != http.StatusOK {
		t.Fatalf("run status = %d: %s", run.Code, run.Body.String())
	}
	bad := scrape(t, h, http.MethodPost, "/run", `not json`)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad run status = %d", bad.Code)
	}

	after := scrape(t, h, http.MethodGet, "/metrics", "").Body.String()
	if v := metricValue(t, after, "gateway_runs_total"); v != 1 {
		t.Errorf("gateway_runs_total = %d, want 1", v)
	}
	if v := metricValue(t, after, "gateway_errors_total"); v != 1 {
		t.Errorf("gateway_errors_total = %d, want 1", v)
	}
	// The run's simulation counters aggregate into the same registry.
	if v := metricValue(t, after, "faasmem_requests_completed_total"); v == 0 {
		t.Error("faasmem_requests_completed_total = 0 after a run")
	}
	if v := metricValue(t, after, "faasmem_cold_starts_total"); v == 0 {
		t.Error("faasmem_cold_starts_total = 0 after a run")
	}
	// The exposed families are pinned, so a family that only copies another
	// cannot come back unnoticed.
	var families []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(after, -1) {
		families = append(families, m[1])
	}
	slices.Sort(families)
	if !slices.Equal(families, metricsFamilies) {
		t.Errorf("/metrics families (%d):\n%s\nwant (%d):\n%s", len(families), strings.Join(families, "\n"),
			len(metricsFamilies), strings.Join(metricsFamilies, "\n"))
	}
}

// metricsFamilies is every family /metrics exposes after a merging /run
// under a fault plan, sorted.
var metricsFamilies = []string{
	"faasmem_cold_reinits_total",
	"faasmem_cold_starts_total",
	"faasmem_container_recycles_total",
	"faasmem_containers_evicted_total",
	"faasmem_degraded_transitions_total",
	"faasmem_fallback_pages_total",
	"faasmem_fault_pages_total",
	"faasmem_fetch_retries_total",
	"faasmem_fetch_timeouts_total",
	"faasmem_injected_stall_us_total",
	"faasmem_link_offload_bytes_total",
	"faasmem_link_recall_bytes_total",
	"faasmem_link_saturation_events_total",
	"faasmem_live_containers",
	"faasmem_memnode_cache_hit_pages_total",
	"faasmem_memnode_cache_miss_pages_total",
	"faasmem_memnode_cache_used_bytes",
	"faasmem_memnode_compress_saved_bytes",
	"faasmem_memnode_compressed_pages_total",
	"faasmem_memnode_dedup_hit_pages_total",
	"faasmem_memnode_dedup_saved_bytes",
	"faasmem_memnode_dram_used_bytes",
	"faasmem_memnode_evictions_total",
	"faasmem_memnode_full_reject_pages_total",
	"faasmem_memnode_logical_bytes",
	"faasmem_memnode_merged_pages_total",
	"faasmem_memnode_quota_reject_pages_total",
	"faasmem_memnode_resident_bytes",
	"faasmem_memnode_spill_used_bytes",
	"faasmem_memnode_spilled_pages_total",
	"faasmem_node_local_bytes",
	"faasmem_node_remote_bytes",
	"faasmem_pages_offloaded_exec_total",
	"faasmem_pages_offloaded_init_total",
	"faasmem_pages_offloaded_runtime_total",
	"faasmem_pages_offloaded_shared_total",
	"faasmem_pages_offloaded_unsegmented_total",
	"faasmem_pool_used_bytes",
	"faasmem_readahead_pages_total",
	"faasmem_request_latency_seconds",
	"faasmem_requests_completed_total",
	"faasmem_semiwarm_starts_total",
	"faasmem_swap_cluster_reads_total",
	"faasmem_warm_starts_total",
	"faasmem_write_break_pages_total",
	"gateway_errors_total",
	"gateway_experiments_total",
	"gateway_replays_total",
	"gateway_runs_total",
}

// TestMetricsConcurrentScrape exercises /metrics while runs are in flight —
// the reason the whole tree runs under go test -race in CI.
func TestMetricsConcurrentScrape(t *testing.T) {
	h := Handler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := `{"bench":"json","duration_sec":60,"seed":` + strconv.Itoa(seed) + `}`
			if rec := scrape(t, h, http.MethodPost, "/run", body); rec.Code != http.StatusOK {
				t.Errorf("run status = %d", rec.Code)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := scrape(t, h, http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK {
				t.Errorf("metrics status = %d", rec.Code)
			}
		}()
	}
	wg.Wait()

	final := scrape(t, h, http.MethodGet, "/metrics", "").Body.String()
	if v := metricValue(t, final, "gateway_runs_total"); v != 4 {
		t.Errorf("gateway_runs_total = %d, want 4", v)
	}
}
