package experiments

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// FuzzRunSpec holds Normalize to its contract on any /run body: it never
// panics, and a spec it accepts has a bounded horizon and fault intensity.
// A single-bench spec also asks for at most MaxInvocations, and building
// (not running) its Scenario yields a positive duration and keep-alive and
// at most MaxInvocations invocations.
func FuzzRunSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"bench":"json","duration_sec":120,"keep_alive_sec":86400}`,
		`{"bench":"json","duration_sec":120,"keep_alive_sec":9.2e9}`,
		`{"bench":"json","duration_sec":120,"keep_alive_sec":1e10}`,
		`{"keep_alive_sec":1e300}`,
		`{"mean_gap_sec":5e-324}`,
		`{"duration_sec":1e-10,"mean_gap_sec":1,"bursty":true}`,
		`{"bench":"web","duration_sec":43200,"mean_gap_sec":0.216,"fault_intensity":1}`,
		`{"workflow":"fanout","workflow_runs":100,"fanout_width":64}`,
		`{"workflow":"mapreduce","workflow_runs":100,"fanout_width":64,"state_mode":"reinit"}`,
		`{"merge_scope":"cross-tenant","merge_opt_in":["a"],"cache_mb":16384}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil || s.Normalize() != nil {
			return
		}
		maxSec := MaxHorizon.Seconds()
		if !(s.DurationSec > 0 && s.DurationSec <= maxSec) || !(s.KeepAliveSec > 0 && s.KeepAliveSec <= maxSec) {
			t.Fatalf("accepted duration %gs, keep-alive %gs outside (0, %gs]", s.DurationSec, s.KeepAliveSec, maxSec)
		}
		if !(s.FaultIntensity >= 0 && s.FaultIntensity <= 1) {
			t.Fatalf("accepted fault_intensity %g", s.FaultIntensity)
		}
		if s.Workflow != "" {
			return
		}
		if n := s.DurationSec / s.MeanGapSec; !(n <= MaxInvocations) {
			t.Fatalf("accepted %g invocations, ceiling %d", n, MaxInvocations)
		}
		sc := s.Scenario(telemetry.Hub{})
		if sc.Duration <= 0 || sc.KeepAlive <= 0 || len(sc.Invocations) > MaxInvocations {
			t.Fatalf("built duration %v, keep-alive %v, %d invocations", sc.Duration, sc.KeepAlive, len(sc.Invocations))
		}
	})
}

// TestSpecFlags checks that the CLI flags default to the prefilled spec and
// parse durations into its seconds fields.
func TestSpecFlags(t *testing.T) {
	s := Spec{Bench: "bert", DurationSec: 1800, MeanGapSec: 10, KeepAliveSec: 600, Seed: 1}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Flags(fs)
	if got := fs.Lookup("duration").DefValue; got != "30m0s" {
		t.Fatalf("-duration default %q, want 30m0s", got)
	}
	if err := fs.Parse([]string{"-bench", "web", "-gap", "250ms", "-keepalive", "90s", "-bursty"}); err != nil {
		t.Fatal(err)
	}
	want := Spec{Bench: "web", DurationSec: 1800, MeanGapSec: 0.25, KeepAliveSec: 90, Bursty: true, Seed: 1}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if fs.Parse([]string{"-duration", "soon"}) == nil {
		t.Fatal("-duration soon parsed")
	}
}
