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
	writeJSON(w, http.StatusOK, map[string]any{
		"window_sec": s.tel.Exemplars.Window().Seconds(),
		"k":          s.tel.Exemplars.K(),
		"cells":      cells,
	})
}

// handleFlows serves the page byte-flow ledger accumulated across every /run,
// plus its conservation self-audit. With several runs folded into one
// recorder the audit reports per-run occupancy checks where it can and marks
// the aggregate as merged otherwise — the flows themselves stay additive.
func (s *server) handleFlows(w http.ResponseWriter, _ *http.Request) {
	rows := s.tel.Timeline.FlowRows()
	if rows == nil {
		rows = []timeseries.FlowRow{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"flows": rows,
		"audit": timeseries.AuditFlows(s.tel.Timeline),
	})
}
