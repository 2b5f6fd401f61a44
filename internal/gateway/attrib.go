package gateway

import (
	"fmt"
	"io"
	"net/http"

	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// handleAttrib serves the latency attribution of every span recorded since
// the gateway started (across /run and /replay scenarios). ?format selects
// the rendering: text (default, the faasmem-stat table), json (the full
// span.Analysis), or prometheus (per-phase gauges for scraping). An unknown
// format is a 400 before any span is analyzed.
func (s *server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", "text", "json", "prometheus":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want text, json, or prometheus)", format))
		return
	}
	an := span.Analyze(s.tel.Spans.Invocations())
	switch format {
	case "json":
		s.writeJSON(w, http.StatusOK, an)
	case "prometheus":
		s.writeText(w, "text/plain; version=0.0.4; charset=utf-8", func(rep *reply) {
			_ = writeAttribPrometheus(rep, an)
		})
	default:
		s.writeText(w, "text/plain; charset=utf-8", func(rep *reply) {
			_ = span.WriteText(rep, an)
		})
	}
}

// writeAttribPrometheus renders an analysis as Prometheus gauges: one
// per-phase latency sample per (function, quantile, phase), plus invocation
// counts. Function names come from user-supplied profiles and trace IDs, so
// label values go through telemetry.EscapeLabelValue.
func writeAttribPrometheus(w io.Writer, an *span.Analysis) error {
	if _, err := fmt.Fprint(w,
		"# HELP faasmem_attrib_invocations Span trees analyzed per function\n",
		"# TYPE faasmem_attrib_invocations gauge\n"); err != nil {
		return err
	}
	all := append([]span.Attribution{an.Overall}, an.PerFunction...)
	name := func(i int, at span.Attribution) string {
		if i == 0 {
			return "overall"
		}
		return at.Function
	}
	for i, at := range all {
		if _, err := fmt.Fprintf(w, "faasmem_attrib_invocations{function=\"%s\"} %d\n",
			telemetry.EscapeLabelValue(name(i, at)), at.N); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w,
		"# HELP faasmem_attrib_phase_seconds Critical-path time per phase at the order-statistic quantile\n",
		"# TYPE faasmem_attrib_phase_seconds gauge\n"); err != nil {
		return err
	}
	for i, at := range all {
		fn := telemetry.EscapeLabelValue(name(i, at))
		for _, bd := range at.Breakdowns {
			for p := span.Phase(0); p < span.NumPhases; p++ {
				if bd.Phase[p] == 0 {
					continue
				}
				if _, err := fmt.Fprintf(w,
					"faasmem_attrib_phase_seconds{function=\"%s\",quantile=\"%g\",phase=\"%s\"} %g\n",
					fn, bd.Q, p.String(), bd.Phase[p].Seconds()); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w,
				"faasmem_attrib_phase_seconds{function=\"%s\",quantile=\"%g\",phase=\"total\"} %g\n",
				fn, bd.Q, bd.Total.Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}
