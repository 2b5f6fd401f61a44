package gateway

import (
	"net/http"

	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// handleExemplars serves the worst-K tail exemplars retained per
// (window, node, tenant) cell across every /run since the gateway started.
// Like /timeline, the recorder is service-lifetime: each run's virtual clock
// starts at zero, so repeated runs compete within the same windows and the
// surface keeps only the globally worst span trees per cell.
func (s *server) handleExemplars(w http.ResponseWriter, _ *http.Request) {
	cells := s.tel.Exemplars.Cells()
	if cells == nil {
		cells = []exemplar.Cell{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"window_sec": s.tel.Exemplars.Window().Seconds(),
		"k":          s.tel.Exemplars.K(),
		"cells":      cells,
	})
}

// handleFlows serves the page byte-flow ledger accumulated across every /run,
// plus its conservation self-audit. With several runs folded into one
// recorder the audit reports per-run occupancy checks where it can and marks
// the aggregate as merged otherwise — the flows themselves stay additive.
// The rows are read into the reply's own row slice and appended as compact
// JSON without reflection, then indented with every other reply.
func (s *server) handleFlows(w http.ResponseWriter, _ *http.Request) {
	rep := s.takeReply()
	defer s.putReply(rep)
	rep.rows = s.tel.Timeline.AppendFlowRows(rep.rows)
	rep.raw = append(rep.raw, `{"audit":`...)
	_ = rep.enc.Encode(timeseries.AuditFlows(s.tel.Timeline))
	rep.raw = append(rep.raw[:len(rep.raw)-1], `,"flows":[`...)
	for i := range rep.rows {
		if i > 0 {
			rep.raw = append(rep.raw, ',')
		}
		rep.raw = appendFlowRow(rep.raw, &rep.rows[i])
	}
	rep.raw = append(rep.raw, "]}\n"...)
	sendJSON(w, http.StatusOK, rep)
}
