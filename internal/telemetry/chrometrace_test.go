package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry/chrome"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTracer replays a small deterministic "simulation" — one container's
// cold start, two requests, a Pucket offload, a fault, and recycle — entirely
// from fixed events, so the golden file pins the exporter's schema without
// depending on simulator behaviour.
func goldenTracer() *Tracer {
	tr := NewTracer(64)
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	tr.record(Event{At: sec(0), Kind: KindContainerLaunch, Actor: "web#1", Fn: "web"})
	tr.record(Event{At: sec(0), Dur: sec(1.2), Kind: KindRuntimeLoaded, Actor: "web#1", Fn: "web", Stage: StageRuntime, Value: 2048})
	tr.record(Event{At: sec(1.2), Dur: sec(0.4), Kind: KindInitDone, Actor: "web#1", Fn: "web", Stage: StageInit, Value: 1024})
	tr.record(Event{At: sec(1.6), Dur: sec(0.25), Kind: KindRequest, Actor: "web#1", Fn: "web"})
	tr.record(Event{At: sec(1.85), Kind: KindPucketOffload, Actor: "web#1", Fn: "web", Stage: StageRuntime, Value: 1500, Aux: 0})
	tr.record(Event{At: sec(1.85), Dur: sec(0.05), Kind: KindLinkTransfer, Actor: "link", Value: 6144000, Aux: 0})
	tr.record(Event{At: sec(1.85), Kind: KindContainerIdle, Actor: "web#1", Fn: "web"})
	tr.record(Event{At: sec(30), Dur: sec(0.26), Kind: KindRequest, Actor: "web#1", Fn: "web", Value: 3})
	tr.record(Event{At: sec(30), Dur: sec(0.01), Kind: KindPageFault, Actor: "web#1", Fn: "web", Stage: StageRuntime, Value: 3, Aux: 8})
	tr.record(Event{At: sec(630), Kind: KindContainerRecycle, Actor: "web#1", Fn: "web", Value: 6144000})
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTracer()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace schema drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTracer()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter must emit valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var threads, spans, instants int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threads++
			}
		case "X":
			spans++
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Fatalf("instant event missing thread scope: %v", ev)
			}
		}
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	// Tracks: web#1 and link.
	if threads != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2", threads)
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("spans/instants = %d/%d, want both nonzero", spans, instants)
	}
	for _, want := range []string{"container-launch", "request", "page-fault", "pucket-offload", "link-transfer"} {
		if !names[want] {
			t.Fatalf("trace missing %q event", want)
		}
	}
}

func TestChromeTraceSortsByTime(t *testing.T) {
	tr := NewTracer(8)
	// Recorded out of order: the link reserves into the future.
	tr.record(Event{At: 5 * time.Second, Dur: time.Second, Kind: KindLinkTransfer, Actor: "link"})
	tr.record(Event{At: 1 * time.Second, Kind: KindRequest, Actor: "a#1"})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	doc, err := chrome.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var last float64 = -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < last {
			t.Fatalf("events not sorted by ts: %v after %v", ev.Ts, last)
		}
		last = ev.Ts
	}
}

func TestWriteChromeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeTraceFile(path, goldenTracer()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("file is not valid JSON")
	}
}
