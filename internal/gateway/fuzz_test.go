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

// FuzzGatewayReplay posts any body to /replay on a fresh handler: the reply
// must be a 2xx or 4xx with a JSON body, never a panic or a 5xx. It starts
// from a small valid trace, with and without a memory node, and the
// malformed bodies TestReplayValidation rejects.
func FuzzGatewayReplay(f *testing.F) {
	const trace = `"trace": {"duration": 60000000000, "functions": [{"id": "a", "invocations": [0, 30000000000]}, {"id": "b", "invocations": [1000000000]}]}`
	for _, body := range []string{
		`{` + trace + `, "profile": "json", "policy": "faasmem", "seed": 5}`,
		`{` + trace + `, "profile": "mix", "keep_alive_sec": 30, "mem_node": {"dram_mb": 64, "spill_mb": 64, "quota_mb": 8}}`,
		`{}`,
		`{"trace": {"duration": -1}}`,
		`{` + trace + `, "policy": "nope"}`,
		`{` + trace + `, "profile": "nope"}`,
		`{` + trace + `, "max_invocations": 2}`,
		`{` + trace + `, "keep_alive_sec": 1e7}`,
		`{"trace": {"duration": 9000000000000000000, "functions": [{"id":"a","invocations":[0]}]}}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/replay", bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("POST /replay %q: status %d, want 2xx or 4xx", body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /replay %q: status %d with a body that is not JSON: %q", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzIndentMatchesEncoder holds the reply renderers to the standard
// library: on any valid JSON, compacted as json.Marshal would leave it,
// appendIndent must produce json.Indent's bytes plus a newline, and
// writeJSON must write exactly what json.Encoder with SetIndent("", "  ")
// writes for the same value — and then for a second, shorter value, so a
// reply buffer reused with a stale tail fails. Every input, valid or not,
// must also come out of appendJSONString as json.Marshal quotes it.
func FuzzIndentMatchesEncoder(f *testing.F) {
	for _, s := range []string{
		`{"quote \", then {punctuation}: [inside]":"\"}"}`,
		`["back\\slash\\",{"k":"\\"},"\\\"[]"]`,
		"\"raw line\u2028and paragraph\u2029separators\"",
		`{"html":"<&>"}`,
		`{"a":{},"b":[],"c":[{},[],{}],"d":[[[]]],"e":{"f":{}}}`,
		`{"k:,{}[]":"v,:[]{}","n":null,"t":true,"f":false}`,
		`[1e10,-2.5E-3,0,1.5e+300,-0]`,
		strings.Repeat(`[{"x":`, 40) + `1` + strings.Repeat(`}]`, 40),
		` { "spaced" : [ 1 , 2 ] } `,
		"bad utf-8 \xff\xfe, a control \x01 and DEL \x7f",
		`fn<b>&amp;`,
	} {
		f.Add([]byte(s))
	}
	s := newServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _ := json.Marshal(string(data))
		if got := appendJSONString(nil, string(data)); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %q, want %q", data, got, want)
		}
		if !json.Valid(data) {
			return
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		indented.WriteByte('\n')
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, indented.Bytes()) {
			t.Fatalf("appendIndent(%q)\n got %q\nwant %q", compact.Bytes(), got, indented.Bytes())
		}

		for _, v := range []json.RawMessage{data, json.RawMessage(`0`)} {
			var enc bytes.Buffer
			e := json.NewEncoder(&enc)
			e.SetIndent("", "  ")
			if err := e.Encode(v); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.writeJSON(rec, 200, v)
			if !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
				t.Fatalf("writeJSON(%q)\n got %q\nwant %q", v, rec.Body.Bytes(), enc.Bytes())
			}
		}
	})
}
