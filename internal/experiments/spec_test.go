package experiments

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// FuzzRunSpec holds Normalize to its contract on any /run body: it never
// panics, and a spec it accepts has a bounded horizon and fault intensity.
// A single-bench spec also asks for at most MaxInvocations, and building
// (not running) its Scenario yields a positive duration and keep-alive and
// at most MaxInvocations invocations. Its seeds, one /run body per line of
// testdata/spec_seeds.txt, also seed the gateway's FuzzGatewayRun.
func FuzzRunSpec(f *testing.F) {
	seeds, err := os.ReadFile("testdata/spec_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range strings.Split(strings.TrimSpace(string(seeds)), "\n") {
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
