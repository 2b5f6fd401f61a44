package sharedmem

import (
	"errors"
	"testing"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
)

func newManager(t *testing.T, node *memnode.Config) (*Manager, *rmem.Pool) {
	t.Helper()
	pool := rmem.NewPool(rmem.Config{Node: node})
	return New(Config{Pool: pool}), pool
}

func TestCreateMapReleaseLifecycle(t *testing.T) {
	m, pool := newManager(t, &memnode.Config{})
	now := simtime.Time(0)

	r, res, err := m.Create(now, "stage0-out", "wf", 64*pageBytes)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if res.Resident != 64 || res.Shortfall != 0 {
		t.Fatalf("resident=%d shortfall=%d, want 64/0", res.Resident, res.Shortfall)
	}
	if got := pool.Node().OwnerPages(Owner("stage0-out"), "wf", memnode.ClassShared); got != 64 {
		t.Fatalf("node holds %d shared pages, want 64", got)
	}
	if pool.Used() != 64*pageBytes {
		t.Fatalf("pool used %d, want %d", pool.Used(), 64*pageBytes)
	}

	// Two consumers map the same copy: occupancy must not grow.
	for i := 0; i < 2; i++ {
		stall, err := m.Map(res.Done, "stage0-out")
		if err != nil {
			t.Fatalf("Map %d: %v", i, err)
		}
		if stall.Total <= 0 {
			t.Fatalf("Map %d: zero stall for 64-page transfer", i)
		}
	}
	if pool.Used() != 64*pageBytes {
		t.Fatalf("pool used %d after maps, want unchanged %d", pool.Used(), 64*pageBytes)
	}
	if r.Refs() != 2 {
		t.Fatalf("refs=%d, want 2", r.Refs())
	}

	// Producer releases while consumers are live: bytes drain on last unmap.
	if err := m.Release(res.Done, "stage0-out"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if m.Region("stage0-out") == nil {
		t.Fatal("region freed with live mappings")
	}
	if _, err := m.Map(res.Done, "stage0-out"); !errors.Is(err, ErrReleased) {
		t.Fatalf("Map after release: err=%v, want ErrReleased", err)
	}
	if err := m.Unmap(res.Done, "stage0-out"); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := m.Unmap(res.Done, "stage0-out"); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if !m.Drained() {
		t.Fatal("manager not drained after release + last unmap")
	}
	if pool.Used() != 0 {
		t.Fatalf("pool used %d after drain, want 0", pool.Used())
	}
	if err := pool.Node().CheckInvariants(); err != nil {
		t.Fatalf("memnode invariants: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("manager invariants: %v", err)
	}
	st := m.Stats()
	if st.Created != 1 || st.Freed != 1 || st.Maps != 2 || st.Unmaps != 2 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteBreakChargesWriterTenant(t *testing.T) {
	m, pool := newManager(t, &memnode.Config{DisableDedup: true})
	now := simtime.Time(0)

	_, res, err := m.Create(now, "cache", "producer", 32*pageBytes)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	now = res.Done
	if _, err := m.Map(now, "cache"); err != nil {
		t.Fatalf("Map: %v", err)
	}
	br, err := m.WriteBreak(now, "cache", "writer", 8*pageBytes)
	if err != nil {
		t.Fatalf("WriteBreak: %v", err)
	}
	if br.Private != 8 || br.Shortfall != 0 {
		t.Fatalf("private=%d shortfall=%d, want 8/0", br.Private, br.Shortfall)
	}
	if br.Stall.Total <= 0 {
		t.Fatal("CoW break with zero stall")
	}
	node := pool.Node()
	if got := node.TenantLogicalBytes("writer"); got != 8*pageBytes {
		t.Fatalf("writer tenant charged %d, want %d", got, 8*pageBytes)
	}
	if got := node.TenantLogicalBytes("producer"); got != 32*pageBytes {
		t.Fatalf("producer tenant charged %d, want %d", got, 32*pageBytes)
	}
	// Region copy intact; pool occupancy grew by exactly the private pages.
	if got := pool.Node().OwnerPages(Owner("cache"), "producer", memnode.ClassShared); got != 32 {
		t.Fatalf("region pages %d after CoW, want 32", got)
	}
	if pool.Used() != 40*pageBytes {
		t.Fatalf("pool used %d, want %d", pool.Used(), 40*pageBytes)
	}

	// Drain: the CoW clone goes with the region.
	if err := m.Unmap(now, "cache"); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := m.Release(now, "cache"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if pool.Used() != 0 || !m.Drained() {
		t.Fatalf("drain left used=%d drained=%v", pool.Used(), m.Drained())
	}
	if got := node.TenantLogicalBytes("writer"); got != 0 {
		t.Fatalf("writer tenant still charged %d after drain", got)
	}
	if err := node.CheckInvariants(); err != nil {
		t.Fatalf("memnode invariants: %v", err)
	}
}

func TestCreateShortfallUnderQuota(t *testing.T) {
	m, _ := newManager(t, &memnode.Config{
		TenantQuotaBytes:   16 * pageBytes,
		DisableDedup:       true,
		DisableCompression: true,
	})
	_, res, err := m.Create(0, "big", "t0", 64*pageBytes)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if res.Resident != 16 || res.Shortfall != 48 {
		t.Fatalf("resident=%d shortfall=%d, want 16/48", res.Resident, res.Shortfall)
	}
	if m.Stats().ShortfallPages != 48 {
		t.Fatalf("shortfall pages %d, want 48", m.Stats().ShortfallPages)
	}
}

func TestMapCostScalesWithTiering(t *testing.T) {
	// Force the resident pages into the spill tier: a later map must pay
	// the tier surcharge on top of the wire time.
	node := &memnode.Config{
		DRAMBytes:          8 * pageBytes,
		DisableCompression: true,
		DisableDedup:       true,
	}
	m, pool := newManager(t, node)
	_, res, err := m.Create(0, "cold", "t0", 32*pageBytes)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if res.Resident != 32 {
		t.Fatalf("resident=%d, want 32 (spill is unbounded)", res.Resident)
	}
	stall, err := m.Map(res.Done, "cold")
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if stall.Tier <= 0 {
		t.Fatalf("spilled region mapped with zero tier surcharge: %+v", stall)
	}
	_ = pool
}

func TestErrorsAndPanics(t *testing.T) {
	m, _ := newManager(t, nil)
	if _, err := m.Map(0, "nope"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Map unknown: %v", err)
	}
	if err := m.Unmap(0, "nope"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Unmap unknown: %v", err)
	}
	if err := m.Release(0, "nope"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Release unknown: %v", err)
	}
	if _, _, err := m.Create(0, "dup", "t", pageBytes); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, err := m.Create(0, "dup", "t", pageBytes); !errors.Is(err, ErrDuplicateRegion) {
		t.Fatalf("Create dup: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unmap underflow did not panic")
			}
		}()
		m.Unmap(0, "dup")
	}()
}

func TestDegradedPoolFailsMap(t *testing.T) {
	// A pool with no node still works; health failures are exercised via
	// the fault-injection plans in the experiment tests. Here: the no-node
	// pool path accepts everything and maps price pure wire time.
	pool := rmem.NewPool(rmem.Config{})
	m := New(Config{Pool: pool})
	_, res, err := m.Create(0, "r", "t", 16*pageBytes)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	stall, err := m.Map(res.Done, "r")
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if stall.Tier != 0 {
		t.Fatalf("no-node map has tier surcharge %v", stall.Tier)
	}
	if stall.Total <= 0 {
		t.Fatal("no-node map has zero cost")
	}
}
