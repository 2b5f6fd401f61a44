package rmem

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/telemetry"
)

// nodePool builds a pool backed by a memory node for described-path tests.
func nodePool(node memnode.Config) *Pool {
	return NewPool(Config{Node: &node})
}

func TestOffloadExactlyAtCapacity(t *testing.T) {
	p := NewPool(Config{Capacity: 3 * pageBytes})
	if _, err := pushBytes(p, 0, 2*pageBytes); err != nil {
		t.Fatal(err)
	}
	// The last page lands exactly on the boundary — must succeed.
	if _, err := pushBytes(p, 0, pageBytes); err != nil {
		t.Fatalf("offload to exact capacity rejected: %v", err)
	}
	if p.Used() != 3*pageBytes {
		t.Fatalf("Used = %d, want full capacity %d", p.Used(), 3*pageBytes)
	}
	// One more page tips over.
	if _, err := pushBytes(p, 0, pageBytes); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	if p.Used() != 3*pageBytes {
		t.Fatalf("failed offload changed Used to %d", p.Used())
	}
}

func TestAcceptableBytesTruncatesAtFreeSpace(t *testing.T) {
	// An hour on, the backlog budget is a full second of link bandwidth;
	// free capacity is the binding constraint.
	p := NewPool(Config{Capacity: 10 * pageBytes})
	pushBytes(p, 0, 9*pageBytes)
	if got := p.AcceptableBytes(time.Hour); got != pageBytes {
		t.Fatalf("budget = %d, want exact free space %d", got, pageBytes)
	}
	pushBytes(p, time.Hour, pageBytes)
	if got := p.AcceptableBytes(2 * time.Hour); got != 0 {
		t.Fatalf("budget at full capacity = %d, want 0", got)
	}
}

func TestOffloadDescribedNilNodeIsAllOrNothing(t *testing.T) {
	p := NewPool(Config{Capacity: 4 * pageBytes})
	var counts ClassCounts
	counts[memnode.ClassRuntime] = 5
	acc, _, _, err := p.OffloadDescribed(0, "c0", "f", counts)
	if !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	if acc.Total() != 0 || p.Used() != 0 {
		t.Fatalf("failed offload accepted %d pages, used %d", acc.Total(), p.Used())
	}
	counts[memnode.ClassRuntime] = 4
	acc, _, done, err := p.OffloadDescribed(0, "c0", "f", counts)
	if err != nil || acc != counts {
		t.Fatalf("fitting offload = (%v, %v), want full acceptance", acc, err)
	}
	if done <= 0 || p.Used() != 4*pageBytes {
		t.Fatalf("done = %v, used = %d", done, p.Used())
	}
}

func TestOffloadDescribedPartialWithNode(t *testing.T) {
	// 8 pages of DRAM, a single page of spill, no compression: a 10-page
	// private batch is truncated to 9.
	p := nodePool(memnode.Config{
		DRAMBytes:          8 * pageBytes,
		SpillBytes:         pageBytes,
		DisableCompression: true,
	})
	var counts ClassCounts
	counts[memnode.ClassExec] = 10
	acc, _, _, err := p.OffloadDescribed(0, "c0", "f", counts)
	if err != nil {
		t.Fatal(err)
	}
	if acc[memnode.ClassExec] != 9 {
		t.Fatalf("accepted = %d pages, want 9", acc[memnode.ClassExec])
	}
	// The pool's byte ledger tracks what the compute side actually moved.
	if p.Used() != 9*pageBytes {
		t.Fatalf("Used = %d, want %d", p.Used(), 9*pageBytes)
	}
	if st := p.Node().Stats(); st.FullRejectPages != 1 {
		t.Fatalf("FullRejectPages = %d, want 1", st.FullRejectPages)
	}
}

func TestOffloadDescribedDedupAdmitsBeyondDRAM(t *testing.T) {
	// 8 pages of DRAM, dedup on: two containers of the same function can
	// both park 8 init pages — the second batch shares the resident copy.
	p := nodePool(memnode.Config{
		DRAMBytes:          8 * pageBytes,
		SpillBytes:         pageBytes, // bounded, so rejection is possible
		DisableCompression: true,
	})
	var counts ClassCounts
	counts[memnode.ClassInit] = 8
	for _, owner := range []string{"c0", "c1"} {
		acc, _, _, err := p.OffloadDescribed(0, owner, "f", counts)
		if err != nil || acc != counts {
			t.Fatalf("owner %s: accepted %v (err %v), want full batch", owner, acc, err)
		}
	}
	// Both batches crossed the wire and are logically held...
	if p.Used() != 16*pageBytes {
		t.Fatalf("Used = %d, want %d", p.Used(), 16*pageBytes)
	}
	st := p.Node().Stats()
	if st.LogicalBytes != 16*pageBytes || st.ResidentBytes != 8*pageBytes {
		t.Fatalf("logical/resident = %d/%d, want %d/%d",
			st.LogicalBytes, st.ResidentBytes, 16*pageBytes, 8*pageBytes)
	}
	if st.DedupHitPages != 8 {
		t.Fatalf("DedupHitPages = %d, want 8", st.DedupHitPages)
	}
}

func TestAcceptableBytesConsultsNode(t *testing.T) {
	// Without a node this config is an unlimited pool; with one, admission
	// stops at the node's free space.
	p := nodePool(memnode.Config{
		DRAMBytes:          4 * pageBytes,
		SpillBytes:         pageBytes,
		DisableCompression: true,
	})
	if got := p.AcceptableBytes(time.Hour); got != 5*pageBytes {
		t.Fatalf("idle budget = %d, want node free space %d", got, 5*pageBytes)
	}
	var counts ClassCounts
	counts[memnode.ClassExec] = 4
	if _, _, _, err := p.OffloadDescribed(0, "c0", "f", counts); err != nil {
		t.Fatal(err)
	}
	if got := p.AcceptableBytes(time.Hour); got != pageBytes {
		t.Fatalf("budget = %d, want remaining node space %d", got, pageBytes)
	}
}

func TestFaultBatchOwnerAddsTierSurcharge(t *testing.T) {
	const spillLat = 80 * time.Microsecond // memnode's per-page spill read
	p := nodePool(memnode.Config{
		DRAMBytes:          4 * pageBytes,
		SpillBytes:         64 * pageBytes,
		DisableCompression: true,
	})
	var counts ClassCounts
	counts[memnode.ClassExec] = 10 // 4 hot + 6 spilled
	if _, _, _, err := p.OffloadDescribed(0, "c0", "f", counts); err != nil {
		t.Fatal(err)
	}
	stall := p.faultBatchOwner(time.Hour, "c0", "f", counts)
	if stall.Tier <= 0 {
		t.Fatalf("tier surcharge = %v, want > 0 for spilled pages", stall.Tier)
	}
	if stall.Total < stall.Tier {
		t.Fatalf("Total %v does not include tier %v", stall.Total, stall.Tier)
	}
	// 6 of 10 pages come off the spill tier.
	want := time.Duration(float64(10) * (6.0 / 10.0) * float64(spillLat))
	if stall.Tier != want {
		t.Fatalf("tier = %v, want %v", stall.Tier, want)
	}
	// Holdings were released along with the recall.
	if st := p.Node().Stats(); st.LogicalBytes != 0 {
		t.Fatalf("LogicalBytes after full recall = %d, want 0", st.LogicalBytes)
	}
}

func TestFaultBatchOwnerNilNodeHasNoTier(t *testing.T) {
	p := NewPool(Config{})
	pushBytes(p, 0, 10*pageBytes)
	var counts ClassCounts
	counts[memnode.ClassRuntime] = 10
	stall := p.faultBatchOwner(time.Hour, "c0", "f", counts)
	if stall.Tier != 0 {
		t.Fatalf("nil-node tier = %v, want 0", stall.Tier)
	}
}

func TestDiscardOwnerReleasesNodeAndLedger(t *testing.T) {
	p := nodePool(memnode.Config{DRAMBytes: 64 * pageBytes, DisableCompression: true})
	var counts ClassCounts
	counts[memnode.ClassInit] = 4
	counts[memnode.ClassExec] = 3
	if _, _, _, err := p.OffloadDescribed(0, "c0", "f", counts); err != nil {
		t.Fatal(err)
	}
	p.DiscardOwner(0, "c0", "f", int64(counts.Total())*pageBytes)
	if p.Used() != 0 {
		t.Fatalf("Used after discard = %d, want 0", p.Used())
	}
	st := p.Node().Stats()
	if st.LogicalBytes != 0 || st.ResidentBytes != 0 {
		t.Fatalf("node after discard = %+v, want empty", st)
	}
	if err := p.Node().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentExportsGauges: two owners offloading the same init prefix
// read as 200 logical pages on the node's gauges, 100 of them deduped.
func TestInstrumentExportsGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := nodePool(memnode.Config{})
	p.Instrument(telemetry.Hub{Reg: reg})
	var counts ClassCounts
	counts[memnode.ClassInit] = 100
	for _, owner := range []string{"c1", "c2"} {
		if _, _, _, err := p.OffloadDescribed(0, owner, "fn", counts); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("faasmem_memnode_logical_bytes", "").Value(); got != 200*pageBytes {
		t.Fatalf("logical gauge = %d, want %d", got, 200*pageBytes)
	}
	if got := reg.Gauge("faasmem_memnode_dedup_saved_bytes", "").Value(); got != 100*pageBytes {
		t.Fatalf("dedup saved gauge = %d, want %d", got, 100*pageBytes)
	}
	if got := reg.Counter("faasmem_memnode_dedup_hit_pages_total", "").Value(); got != 100 {
		t.Fatalf("dedup hit counter = %d, want 100", got)
	}
}

// TestInstrumentWithoutNodeRegistersNoMemNodeFamily: the memory node's
// families belong to pools that have one.
func TestInstrumentWithoutNodeRegistersNoMemNodeFamily(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(Config{})
	p.Instrument(telemetry.Hub{Reg: reg})
	if _, _, _, err := p.OffloadDescribed(0, "c1", "fn", ClassCounts{memnode.ClassInit: 10}); err != nil {
		t.Fatal(err)
	}
	for _, s := range reg.Snapshot() {
		if strings.HasPrefix(s.Name, "faasmem_memnode_") {
			t.Errorf("pool without a node registered %s", s.Name)
		}
	}
}
