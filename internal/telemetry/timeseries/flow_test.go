package timeseries

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

const sec = simtime.Time(time.Second)

// TestFlowConservation drives the ledger the way an instrumented pool does —
// every occupancy mutation records its flow and checkpoints the result — and
// requires the audit to verify every window.
func TestFlowConservation(t *testing.T) {
	r := NewRecorder(Config{Window: 10 * time.Second})
	pool := Dims{Node: "pool"}
	var occ int64
	move := func(at simtime.Time, kind FlowKind, bytes int64) {
		r.AddFlow(at, kind, pool, bytes)
		occ += int64(kind.Direction()) * bytes
		r.FlowOccupancy(at, occ)
	}
	move(1*sec, FlowOffload, 4096)
	move(2*sec, FlowOffload, 8192)
	move(12*sec, FlowRecall, 4096) // next window
	move(13*sec, FlowCompress, 2048)
	move(31*sec, FlowFault, 2048) // window gap: carry must hold
	move(32*sec, FlowDiscard, 1024)

	a := AuditFlows(r)
	if !a.OK || a.Violations != 0 {
		t.Fatalf("audit = %+v, want clean", a)
	}
	if a.Runs != 1 || a.Merged {
		t.Errorf("runs = %d merged = %v, want a single un-merged run", a.Runs, a.Merged)
	}
	if a.Checks != 6 {
		t.Errorf("checks = %d, want 6", a.Checks)
	}
	if len(a.Windows) != 3 {
		t.Fatalf("audited windows = %d, want 3", len(a.Windows))
	}
	for _, w := range a.Windows {
		if !w.OK || w.OccDelta != w.FlowDelta {
			t.Errorf("window %d: occ %d vs flow %d", w.Window, w.OccDelta, w.FlowDelta)
		}
	}
	// Intra-pool tier movement must not count toward occupancy flow.
	if a.Windows[1].FlowDelta != -4096 {
		t.Errorf("window 1 flow delta = %d, want -4096 (compress is direction 0)",
			a.Windows[1].FlowDelta)
	}
}

// TestFlowAuditDetectsMissingHook mutates occupancy without recording the
// flow that caused it — the bug class the audit exists to catch.
func TestFlowAuditDetectsMissingHook(t *testing.T) {
	r := NewRecorder(Config{Window: 10 * time.Second})
	r.AddFlow(1*sec, FlowOffload, Dims{Node: "pool"}, 4096)
	r.FlowOccupancy(1*sec, 4096)
	r.FlowOccupancy(2*sec, 8192) // occupancy moved, no flow recorded

	a := AuditFlows(r)
	if a.OK || a.Violations == 0 {
		t.Fatalf("audit = %+v, want a violation", a)
	}
}

// TestFlowAuditMerged: once more than one run feeds a recorder, occupancy
// checkpoints from separate virtual clocks interleave and the audit must
// declare itself not applicable rather than flag spurious violations.
func TestFlowAuditMerged(t *testing.T) {
	r := NewRecorder(Config{Window: 10 * time.Second})
	for run := 0; run < 2; run++ {
		r.StartRun()
		r.AddFlow(1*sec, FlowOffload, Dims{Node: "pool"}, 4096)
		r.FlowOccupancy(1*sec, 4096) // each run's pool restarts at 0 → would "violate"
	}
	a := AuditFlows(r)
	if !a.Merged || a.Runs != 2 {
		t.Fatalf("audit = %+v, want merged with 2 runs", a)
	}
	if !a.OK || a.Violations != 0 || len(a.Windows) != 0 {
		t.Errorf("merged audit = %+v, want vacuously OK with no per-window rows", a)
	}
	if a.Checks != 2 {
		t.Errorf("checks = %d, want 2 (still counted when merged)", a.Checks)
	}
}

// TestFlowMergeAdditive records two runs into one sink, one after another:
// per-cell bytes add exactly and the run count marks the ledger merged.
func TestFlowMergeAdditive(t *testing.T) {
	sink := NewRecorder(Config{Window: 10 * time.Second})
	for _, bytes := range []int64{4096, 8192} {
		sink.StartRun()
		sink.AddFlow(1*sec, FlowOffload, Dims{Node: "pool", Tenant: "web"}, bytes)
		sink.FlowOccupancy(1*sec, bytes)
		sink.AddFlow(12*sec, FlowRecall, Dims{Node: "pool", Tenant: "web"}, bytes/2)
		sink.FlowOccupancy(12*sec, bytes-bytes/2)
	}
	rows := sink.FlowRows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2 cells", rows)
	}
	if rows[0].Flow != "offload" || rows[0].Bytes != 4096+8192 {
		t.Errorf("offload row = %+v, want additive 12288", rows[0])
	}
	if rows[1].Flow != "recall" || rows[1].Bytes != 2048+4096 {
		t.Errorf("recall row = %+v, want additive 6144", rows[1])
	}
	tot := sink.FlowTotals()
	if tot[FlowOffload] != 12288 || tot[FlowRecall] != 6144 {
		t.Errorf("totals = %v", tot)
	}
	if a := AuditFlows(sink); !a.Merged || a.Runs != 2 {
		t.Errorf("audit after two runs = %+v, want merged", a)
	}
}

// TestNilRecorderFlowNoOp extends the nil-recorder contract to the flow
// surface.
func TestNilRecorderFlowNoOp(t *testing.T) {
	var r *Recorder
	r.AddFlow(0, FlowOffload, Dims{}, 4096)
	r.FlowOccupancy(0, 4096)
	r.StartRun()
	if rows := r.FlowRows(); rows != nil {
		t.Errorf("nil FlowRows = %+v", rows)
	}
	if tot := r.FlowTotals(); tot != [NumFlows]int64{} {
		t.Errorf("nil FlowTotals = %v", tot)
	}
	if a := AuditFlows(r); !a.OK {
		t.Errorf("nil audit = %+v", a)
	}
}
