package gateway

import (
	"fmt"
	"net/http"

	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// handleTimeline serves the per-window time-series rollups accumulated
// across every /run and /replay since the gateway started. Runs share one
// recorder the way they share the span ring: each run's virtual clock starts
// at zero, so concurrent runs fold into the same windows — the surface is a
// service-lifetime aggregate, not a per-run trace (POST /run returns per-run
// outcomes). ?format selects text (default, the faasmem-stat timeline table)
// or json (the full snapshot: rows, summary, flight dumps). The text table
// is rendered straight from the recorder's cells into a server-owned reply
// (timeseries.AppendText), so a read allocates about nothing beyond what the
// ResponseWriter keeps.
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		s.writeText(w, "text/plain; charset=utf-8", func(rep *reply) {
			rep.raw = timeseries.AppendText(rep.raw, s.tel.Timeline)
		})
	case "json":
		s.writeJSON(w, http.StatusOK, timeseries.TakeSnapshot(s.tel.Timeline))
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want text or json)", format))
	}
}

// handleFlight serves the flight-recorder dumps taken so far — the
// high-resolution event windows snapshotted when a fault-injection window
// opened or an SLO burn-rate alarm fired.
func (s *server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	dumps := s.tel.Timeline.Dumps()
	if dumps == nil {
		dumps = []timeseries.Dump{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"dumps":         dumps,
		"dumps_dropped": s.tel.Timeline.DumpsDropped(),
	})
}
