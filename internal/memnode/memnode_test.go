package memnode

import (
	"math/rand"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
)

const ps = pagemem.DefaultPageSize

func check(t *testing.T, n *Node) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDedupSharesResidentCopy(t *testing.T) {
	n := New(Config{})

	// Two containers of the same function offload the same init prefix.
	if got := n.Offload("c1", "fn", ClassInit, 100); got != 100 {
		t.Fatalf("accepted %d, want 100", got)
	}
	if got := n.Offload("c2", "fn", ClassInit, 100); got != 100 {
		t.Fatalf("accepted %d, want 100", got)
	}
	check(t, n)
	if n.LogicalBytes() != 200*ps {
		t.Fatalf("logical = %d, want %d", n.LogicalBytes(), 200*ps)
	}
	if n.ResidentBytes() != 100*ps {
		t.Fatalf("resident = %d, want one shared copy %d", n.ResidentBytes(), 100*ps)
	}
	if n.DedupSavedBytes() != 100*ps {
		t.Fatalf("dedup saved = %d, want %d", n.DedupSavedBytes(), 100*ps)
	}

	// A longer offload grows the shared copy only by the difference.
	if got := n.Offload("c3", "fn", ClassInit, 150); got != 150 {
		t.Fatalf("accepted %d, want 150", got)
	}
	check(t, n)
	if n.ResidentBytes() != 150*ps {
		t.Fatalf("resident = %d, want %d", n.ResidentBytes(), 150*ps)
	}

	// A different function gets its own copy.
	n.Offload("d1", "other", ClassInit, 50)
	check(t, n)
	if n.ResidentBytes() != 200*ps {
		t.Fatalf("resident = %d, want %d", n.ResidentBytes(), 200*ps)
	}
	if n.Stats().DedupHitPages != 200 {
		t.Fatalf("dedup hits = %d, want 200", n.Stats().DedupHitPages)
	}
}

func TestLastReferenceFreesResidentCopy(t *testing.T) {
	n := New(Config{})
	n.Offload("c1", "fn", ClassInit, 100)
	n.Offload("c2", "fn", ClassInit, 60)
	check(t, n)

	// Dropping the longest holder shrinks the copy to the survivor's prefix.
	if got := n.Recall("c1", "fn", ClassInit, 100); got.Pages != 100 {
		t.Fatalf("recalled %d, want 100", got.Pages)
	}
	check(t, n)
	if n.ResidentBytes() != 60*ps || n.LogicalBytes() != 60*ps {
		t.Fatalf("resident/logical = %d/%d, want %d/%d",
			n.ResidentBytes(), n.LogicalBytes(), 60*ps, 60*ps)
	}

	// Releasing the last reference frees the copy entirely.
	n.Recall("c2", "fn", ClassInit, 60)
	check(t, n)
	if n.ResidentBytes() != 0 || n.LogicalBytes() != 0 {
		t.Fatalf("resident/logical = %d/%d after last release, want 0/0",
			n.ResidentBytes(), n.LogicalBytes())
	}
	if n.Stats().Entries != 0 {
		t.Fatalf("entries = %d, want 0", n.Stats().Entries)
	}
}

func TestPrivateClassesDoNotDedup(t *testing.T) {
	n := New(Config{})
	n.Offload("c1", "fn", ClassExec, 40)
	n.Offload("c2", "fn", ClassExec, 40)
	check(t, n)
	if n.ResidentBytes() != 80*ps {
		t.Fatalf("exec pages deduped: resident = %d, want %d", n.ResidentBytes(), 80*ps)
	}
}

func TestDisableDedup(t *testing.T) {
	n := New(Config{DisableDedup: true})
	n.Offload("c1", "fn", ClassInit, 100)
	n.Offload("c2", "fn", ClassInit, 100)
	check(t, n)
	if n.ResidentBytes() != n.LogicalBytes() {
		t.Fatalf("resident %d != logical %d with dedup off", n.ResidentBytes(), n.LogicalBytes())
	}
}

func TestCompressionUnderPressure(t *testing.T) {
	// DRAM fits 100 raw pages; offloading 150 private pages must compress.
	n := New(Config{DRAMBytes: 100 * ps, SpillBytes: 1 << 30, CompressRatio: 4})
	if got := n.Offload("c1", "a", ClassExec, 90); got != 90 {
		t.Fatalf("accepted %d, want 90", got)
	}
	if got := n.Offload("c2", "b", ClassExec, 60); got != 60 {
		t.Fatalf("accepted %d, want 60", got)
	}
	check(t, n)
	st := n.Stats()
	if st.CompressedPages == 0 {
		t.Fatal("no pages compressed under DRAM pressure")
	}
	if st.SpilledPages != 0 {
		t.Fatalf("spilled %d pages though compression sufficed", st.SpilledPages)
	}
	if n.DRAMUsedBytes() > 100*ps {
		t.Fatalf("DRAM used %d exceeds capacity %d", n.DRAMUsedBytes(), 100*ps)
	}
	if st.CompressSavedBytes <= 0 {
		t.Fatal("compression saved nothing")
	}

	// Recalling compressed pages pays a decompression surcharge.
	cost := n.Recall("c1", "a", ClassExec, 90)
	if cost.Pages != 90 || cost.Latency <= 0 {
		t.Fatalf("recall cost = %+v, want 90 pages with tier latency", cost)
	}
	check(t, n)
}

func TestSpillAndFullRejection(t *testing.T) {
	// 50 raw pages of DRAM, 30 pages of spill, compression off: 100-page
	// offload keeps 80 and rejects 20.
	n := New(Config{
		DRAMBytes: 50 * ps, SpillBytes: 30 * ps, DisableCompression: true,
	})
	got := n.Offload("c1", "fn", ClassExec, 100)
	check(t, n)
	if got != 80 {
		t.Fatalf("accepted %d, want 80", got)
	}
	st := n.Stats()
	if st.FullRejectPages != 20 {
		t.Fatalf("full rejects = %d, want 20", st.FullRejectPages)
	}
	if st.SpilledPages != 30 {
		t.Fatalf("spilled = %d, want 30", st.SpilledPages)
	}
	// Spill recalls pay the spill latency for the spilled fraction.
	cost := n.Recall("c1", "fn", ClassExec, 80)
	if cost.Latency < spillLatency {
		t.Fatalf("recall latency %v too low for spilled pages", cost.Latency)
	}
	check(t, n)
}

func TestEvictionPrefersExecOverInit(t *testing.T) {
	// Fill DRAM with an init copy and exec pages, then force a spill: the
	// exec pages must go first.
	n := New(Config{
		DRAMBytes: 100 * ps, SpillBytes: 1 << 30, DisableCompression: true,
	})
	n.Offload("c1", "fn", ClassInit, 50)
	n.Offload("c1", "fn", ClassExec, 50)
	n.Offload("c2", "fn2", ClassInit, 20) // forces 20 pages out
	check(t, n)
	var initSpill, execSpill int
	for _, e := range n.entries {
		switch e.key.class {
		case ClassInit:
			initSpill += e.spill
		case ClassExec:
			execSpill += e.spill
		}
	}
	if execSpill == 0 || initSpill != 0 {
		t.Fatalf("spilled init/exec = %d/%d, want exec evicted first", initSpill, execSpill)
	}
	if n.Stats().Evictions == 0 {
		t.Fatal("LRU demotion did not count an eviction")
	}
}

func TestTenantQuota(t *testing.T) {
	n := New(Config{TenantQuotaBytes: 50 * ps})
	if got := n.Offload("c1", "fn", ClassExec, 40); got != 40 {
		t.Fatalf("accepted %d, want 40", got)
	}
	if got := n.Offload("c2", "fn", ClassExec, 40); got != 10 {
		t.Fatalf("accepted %d, want quota-truncated 10", got)
	}
	check(t, n)
	if n.Stats().QuotaRejectPages != 30 {
		t.Fatalf("quota rejects = %d, want 30", n.Stats().QuotaRejectPages)
	}
	// Another tenant (function) is unaffected.
	if got := n.Offload("c3", "fn2", ClassExec, 40); got != 40 {
		t.Fatalf("accepted %d, want 40", got)
	}
	// Releasing frees quota.
	n.DiscardOwner("c1")
	check(t, n)
	if got := n.Offload("c2", "fn", ClassExec, 40); got != 40 {
		t.Fatalf("accepted %d after quota freed, want 40", got)
	}
	check(t, n)
}

func TestDiscardOwnerDropsEverything(t *testing.T) {
	n := New(Config{})
	n.Offload("c1", "fn", ClassInit, 100)
	n.Offload("c1", "fn", ClassRuntime, 50)
	n.Offload("c1", "fn", ClassExec, 25)
	n.Offload("c2", "fn", ClassInit, 100)
	check(t, n)
	freed := n.DiscardOwner("c1")
	check(t, n)
	if freed != 175*ps {
		t.Fatalf("freed = %d, want %d", freed, 175*ps)
	}
	if n.LogicalBytes() != 100*ps || n.ResidentBytes() != 100*ps {
		t.Fatalf("logical/resident = %d/%d, want c2's copy %d",
			n.LogicalBytes(), n.ResidentBytes(), 100*ps)
	}
	if n.DiscardOwner("c1") != 0 {
		t.Fatal("double discard freed bytes")
	}
	n.DiscardOwner("c2")
	check(t, n)
	if n.LogicalBytes() != 0 || n.Stats().Entries != 0 || n.Stats().Owners != 0 {
		t.Fatalf("node not empty after all discards: %+v", n.Stats())
	}
}

// TestRandomizedInvariants drives a random mix of operations and checks the
// accounting identities after every step — including that logical bytes
// always equal the sum of per-container offloads.
func TestRandomizedInvariants(t *testing.T) {
	n := New(Config{
		DRAMBytes: 200 * ps, SpillBytes: 300 * ps,
		CompressRatio: 3, TenantQuotaBytes: 400 * ps,
	})
	rng := rand.New(rand.NewSource(42))
	owners := []string{"a#1", "a#2", "b#1", "b#2", "c#1"}
	fns := []string{"a", "a", "b", "b", "c"}
	classes := []Class{ClassInit, ClassRuntime, ClassExec, ClassOther}
	ledger := make(map[string]int) // owner -> logical pages (external truth)

	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(owners))
		owner, fn := owners[i], fns[i]
		switch op := rng.Intn(10); {
		case op < 6:
			cls := classes[rng.Intn(len(classes))]
			got := n.Offload(owner, fn, cls, 1+rng.Intn(40))
			ledger[owner] += got
		case op < 9:
			cls := classes[rng.Intn(len(classes))]
			got := n.Recall(owner, fn, cls, 1+rng.Intn(40))
			ledger[owner] -= got.Pages
		default:
			freed := n.DiscardOwner(owner)
			want := int64(ledger[owner]) * ps
			if freed != want {
				t.Fatalf("step %d: discard %s freed %d, ledger says %d", step, owner, freed, want)
			}
			ledger[owner] = 0
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var sum int64
		for o, p := range ledger {
			sum += int64(p)
			if got := n.OwnerLogicalBytes(o); got != int64(p)*ps {
				t.Fatalf("step %d: owner %s logical %d, ledger %d", step, o, got, int64(p)*ps)
			}
		}
		if n.LogicalBytes() != sum*ps {
			t.Fatalf("step %d: node logical %d, sum of per-container offloads %d",
				step, n.LogicalBytes(), sum*ps)
		}
	}
}

func TestRecallLatencyProportions(t *testing.T) {
	n := New(Config{DRAMBytes: 1 << 30})
	n.Offload("c1", "fn", ClassExec, 100)
	// Force the whole entry compressed.
	for _, e := range n.entries {
		n.compressEntry(e)
	}
	check(t, n)
	cost := n.Recall("c1", "fn", ClassExec, 10)
	if want := 10 * decompressLatency; cost.Latency != want {
		t.Fatalf("latency = %v, want %v for 10 fully-compressed pages", cost.Latency, want)
	}
}
