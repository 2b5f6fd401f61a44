package rmem

import (
	"errors"
	"testing"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// TestWriteBreakOwnerPrivatizes covers the pool side of a CoW unmerge: the
// dirty pages' master content crosses the link (a recall-shaped fetch, flow
// direction 0 so occupancy conserves), the private writeback rides the offload
// link, and the byte ledger never moves because the owner's holdings are
// unchanged.
func TestWriteBreakOwnerPrivatizes(t *testing.T) {
	p := nodePool(memnode.Config{
		MergeScope: memnode.MergeTenant,
		TenantOf:   func(string) string { return "t0" },
	})
	tl := timeseries.NewRecorder(timeseries.Config{})
	p.Instrument(telemetry.Hub{Timeline: tl})

	var counts ClassCounts
	counts[memnode.ClassRuntime] = 100
	for _, owner := range []string{"c0", "c1"} {
		if acc, _, _, err := p.OffloadDescribed(0, owner, "f", counts); err != nil || acc != counts {
			t.Fatalf("owner %s: accepted %v (err %v), want full batch", owner, acc, err)
		}
	}
	if got := p.OwnerClassPages("c0", "f", memnode.ClassRuntime); got != 100 {
		t.Fatalf("OwnerClassPages = %d, want 100", got)
	}

	usedBefore := p.Used()
	recallBefore := p.Meter(Recall).Total()
	offloadBefore := p.Meter(Offload).Total()
	out, err := p.WriteBreakOwner(sec(1), "c0", "f", memnode.ClassRuntime, 30)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pages != 30 || out.Recalled != 0 {
		t.Fatalf("break = %+v, want 30 privatized, 0 recalled", out)
	}
	if out.Stall.Total <= 0 {
		t.Fatal("break crossed the link twice but stalled nothing")
	}
	if p.Used() != usedBefore {
		t.Fatalf("ledger moved %d -> %d on a privatizing break", usedBefore, p.Used())
	}
	if got := p.Meter(Recall).Total() - recallBefore; got != 30*pageBytes {
		t.Fatalf("fetch traffic = %d, want %d", got, 30*pageBytes)
	}
	if got := p.Meter(Offload).Total() - offloadBefore; got != 30*pageBytes {
		t.Fatalf("writeback traffic = %d, want %d", got, 30*pageBytes)
	}
	// The unmerge is its own flow kind, and conservation still closes: the
	// fetch is direction-0 (occupancy unchanged), the writeback is the node's
	// internal re-homing, not new pool bytes.
	if tot := tl.FlowTotals(); tot[timeseries.FlowUnmerge] != 30*pageBytes {
		t.Fatalf("FlowUnmerge total = %d, want %d", tot[timeseries.FlowUnmerge], 30*pageBytes)
	}
	if a := timeseries.AuditFlows(tl); !a.OK || a.Checks == 0 {
		t.Fatalf("flow audit = %+v", a)
	}

	// A second break of everything clamps to the 70 still shared; breaking a
	// privately-held class is not an unmerge and is free.
	out, err = p.WriteBreakOwner(sec(2), "c0", "f", memnode.ClassRuntime, 200)
	if err != nil || out.Pages != 70 {
		t.Fatalf("clamped break = %+v (err %v), want 70 pages", out, err)
	}
	out, err = p.WriteBreakOwner(sec(3), "c0", "f", memnode.ClassRuntime, 10)
	if err != nil || out.Pages != 0 || out.Recalled != 0 || out.Stall.Total != 0 {
		t.Fatalf("break of private pages = %+v (err %v), want free no-op", out, err)
	}
}

// TestWriteBreakOwnerRecallsWhenNodeFull: when the private copy does not fit
// beside the still-referenced master, the remainder leaves the pool like a
// fault — the ledger shrinks by exactly the recalled bytes and the caller
// folds them back into local memory, and the pool gauge follows the ledger.
func TestWriteBreakOwnerRecallsWhenNodeFull(t *testing.T) {
	p := nodePool(memnode.Config{
		DRAMBytes:          8 * pageBytes,
		SpillBytes:         2 * pageBytes,
		DisableCompression: true,
	})
	tl := timeseries.NewRecorder(timeseries.Config{})
	reg := telemetry.NewRegistry()
	p.Instrument(telemetry.Hub{Timeline: tl, Reg: reg})

	var counts ClassCounts
	counts[memnode.ClassRuntime] = 8
	for _, owner := range []string{"c0", "c1"} {
		if acc, _, _, err := p.OffloadDescribed(0, owner, "f", counts); err != nil || acc != counts {
			t.Fatalf("owner %s: accepted %v (err %v), want full batch", owner, acc, err)
		}
	}

	out, err := p.WriteBreakOwner(sec(1), "c0", "f", memnode.ClassRuntime, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pages != 2 || out.Recalled != 2 {
		t.Fatalf("break = %+v, want 2 privatized + 2 recalled", out)
	}
	// 16 pages were held; the 2 recalled left the pool.
	if got, want := p.Used(), int64(14*pageBytes); got != want {
		t.Fatalf("ledger = %d, want %d", got, want)
	}
	if got, want := p.Used(), p.Node().Stats().LogicalBytes; got != want {
		t.Fatalf("pool ledger %d != node logical %d", got, want)
	}
	if got := reg.Gauge("faasmem_pool_used_bytes", "").Value(); got != p.Used() {
		t.Fatalf("faasmem_pool_used_bytes = %d, want the ledger's %d", got, p.Used())
	}
	if tot := tl.FlowTotals(); tot[timeseries.FlowFault] != 2*pageBytes {
		t.Fatalf("FlowFault total = %d, want recalled bytes %d", tot[timeseries.FlowFault], 2*pageBytes)
	}
	if a := timeseries.AuditFlows(tl); !a.OK {
		t.Fatalf("flow audit = %+v", a)
	}
	if err := p.Node().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBreakOwnerNilNodeAndOutage: without a node there is nothing to
// unmerge and the call is free; during an outage window the typed fault error
// surfaces so the caller buffers the write locally.
func TestWriteBreakOwnerNilNodeAndOutage(t *testing.T) {
	plain := NewPool(Config{})
	out, err := plain.WriteBreakOwner(0, "c0", "f", memnode.ClassRuntime, 10)
	if err != nil || out.Pages != 0 || out.Recalled != 0 || out.Stall.Total != 0 {
		t.Fatalf("nil-node break = %+v (err %v), want free no-op", out, err)
	}
	if got := plain.OwnerClassPages("c0", "f", memnode.ClassRuntime); got != 0 {
		t.Fatalf("nil-node OwnerClassPages = %d, want 0", got)
	}

	p := NewPool(Config{
		Node: &memnode.Config{},
		Faults: planWith(faultinject.Window{
			Kind: faultinject.LinkFlap, Start: sec(10), End: sec(20),
		}),
	})
	var counts ClassCounts
	counts[memnode.ClassRuntime] = 10
	if _, _, _, err := p.OffloadDescribed(0, "c0", "f", counts); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteBreakOwner(sec(15), "c0", "f", memnode.ClassRuntime, 5); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("mid-flap break err = %v, want ErrLinkDown", err)
	}
	// Holdings untouched by the failed break; after the window it lands.
	if got := p.OwnerClassPages("c0", "f", memnode.ClassRuntime); got != 10 {
		t.Fatalf("failed break moved holdings: %d, want 10", got)
	}
	if out, err := p.WriteBreakOwner(sec(25), "c0", "f", memnode.ClassRuntime, 5); err != nil || out.Pages != 5 {
		t.Fatalf("post-flap break = %+v (err %v), want 5 pages", out, err)
	}
}
