package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// labelEscaper implements the Prometheus text exposition format's label-value
// escaping: backslash, double quote, and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue escapes a string for inclusion inside a double-quoted
// Prometheus label value. Function names are caller-controlled (profiles
// files, Azure trace IDs) and may contain quotes, backslashes, or newlines.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines followed by the samples, one
// metric per block. Scalar metrics and histograms interleave sorted by
// name; histograms expose cumulative `_bucket{le="..."}` lines, one per
// hist bucket edge in seconds (closed by le="+Inf"), `_sum`, and `_count`.
// All label values pass through
// EscapeLabelValue, the single escaping path for every exporter.
func WritePrometheus(w io.Writer, r *Registry) error {
	// bufio.Writer keeps the first write error and reports it from Flush.
	bw := bufio.NewWriter(w)
	help := func(name, text string) {
		if text != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, text)
		}
	}
	scalars, hists := r.Snapshot(), r.HistSnapshot()
	for len(scalars) > 0 || len(hists) > 0 {
		if len(hists) == 0 || (len(scalars) > 0 && scalars[0].Name < hists[0].Name) {
			s := scalars[0]
			scalars = scalars[1:]
			help(s.Name, s.Help)
			fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", s.Name, s.Type, s.Name, s.Value)
			continue
		}
		h := hists[0]
		hists = hists[1:]
		help(h.Name, h.Help)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", h.Name)
		for _, b := range h.Buckets {
			le := EscapeLabelValue(formatLabelFloat(b.Upper))
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", h.Name, le, b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", h.Name, formatLabelFloat(h.Sum), h.Name, h.Count)
	}
	return bw.Flush()
}

// formatLabelFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, no exponent for typical bucket bounds.
func formatLabelFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
