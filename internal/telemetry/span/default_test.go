package span_test

import (
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// TestDefaultRecorder pins the process-wide span recorder fallback, which
// lives in the telemetry hub: a run given no recorder records into the
// default one, an explicit recorder is never replaced, and with no default
// span recording stays off.
func TestDefaultRecorder(t *testing.T) {
	defer telemetry.SetDefault(telemetry.Hub{})
	if telemetry.Default().Spans != nil {
		t.Fatal("default recorder must start nil")
	}
	if (telemetry.Hub{}).OrDefault().Spans != nil {
		t.Fatal("OrDefault with no default must stay nil")
	}
	r := span.NewRecorder(8)
	telemetry.SetDefault(telemetry.Hub{Spans: r})
	if (telemetry.Hub{}).OrDefault().Spans != r {
		t.Fatal("OrDefault must fall back to the process default")
	}
	own := span.NewRecorder(8)
	if (telemetry.Hub{Spans: own}).OrDefault().Spans != own {
		t.Fatal("OrDefault must prefer the explicit recorder")
	}
}
