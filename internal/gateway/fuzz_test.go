package gateway

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// FuzzGatewayRun posts any body to /run on a fresh handler: the reply must
// be a 2xx or 4xx with a JSON body, never a panic or a 5xx. It starts from
// FuzzRunSpec's seeds, the /run bodies that probe Normalize's bounds.
func FuzzGatewayRun(f *testing.F) {
	seeds, err := os.ReadFile("../experiments/testdata/spec_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range strings.Split(strings.TrimSpace(string(seeds)), "\n") {
		f.Add([]byte(body))
	}
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"bench":"web"} trailing`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("POST /run %q: status %d, want 2xx or 4xx", body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /run %q: status %d with a body that is not JSON: %q", body, rec.Code, rec.Body.Bytes())
		}
	})
}
