package memnode

import (
	"math/rand"
	"strings"
	"testing"
)

// firstLetterTenant maps fn → its first byte: "a1", "a2" belong to tenant
// "a". Substring of the argument, so it never allocates (the bench relies on
// that too).
func firstLetterTenant(fn string) string { return fn[:1] }

func TestParseMergeScope(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MergeScope
	}{
		{"", MergeFunction},
		{"function", MergeFunction},
		{"tenant", MergeTenant},
		{"cross-tenant", MergeCrossTenant},
	} {
		got, err := ParseMergeScope(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMergeScope(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	_, err := ParseMergeScope("rack")
	if err == nil || !strings.Contains(err.Error(), "options: function, tenant, cross-tenant") {
		t.Fatalf("invalid scope error should list the options, got %v", err)
	}
}

func TestTenantScopeMergesAcrossFunctions(t *testing.T) {
	n := New(Config{MergeScope: MergeTenant, TenantOf: firstLetterTenant})

	// Two functions of tenant "a" offload runtime pages: one master.
	n.Offload("a1#1", "a1", ClassRuntime, 100)
	n.Offload("a2#1", "a2", ClassRuntime, 80)
	check(t, n)
	if n.ResidentBytes() != 100*ps {
		t.Fatalf("resident = %d, want one tenant-wide master %d", n.ResidentBytes(), 100*ps)
	}
	if got := n.Stats().MergedPages; got != 80 {
		t.Fatalf("merged pages = %d, want 80 (a2's pages merged onto a1's master)", got)
	}

	// Init pages stay per-function at every scope.
	n.Offload("a1#1", "a1", ClassInit, 50)
	n.Offload("a2#1", "a2", ClassInit, 50)
	check(t, n)
	if n.ResidentBytes() != 200*ps {
		t.Fatalf("resident = %d, want separate init masters (%d)", n.ResidentBytes(), 200*ps)
	}

	// Another tenant gets its own runtime master.
	n.Offload("b1#1", "b1", ClassRuntime, 60)
	check(t, n)
	if n.ResidentBytes() != 260*ps {
		t.Fatalf("resident = %d, want %d — tenant b must not share a's master", n.ResidentBytes(), 260*ps)
	}
	if got := n.Stats().MergedPages; got != 80 {
		t.Fatalf("merged pages = %d after tenant-b offload, want unchanged 80", got)
	}
}

func TestCrossTenantMergeRequiresOptIn(t *testing.T) {
	n := New(Config{
		MergeScope: MergeCrossTenant,
		MergeOptIn: []string{"a", "b"},
		TenantOf:   firstLetterTenant,
	})
	n.Offload("a1#1", "a1", ClassRuntime, 100)
	n.Offload("b1#1", "b1", ClassRuntime, 70) // opted in: merges onto a's master
	check(t, n)
	if n.ResidentBytes() != 100*ps {
		t.Fatalf("resident = %d, want cross-tenant master %d", n.ResidentBytes(), 100*ps)
	}
	if got := n.Stats().MergedPages; got != 70 {
		t.Fatalf("merged pages = %d, want 70", got)
	}

	// Tenant c never opted in: its pages keep a tenant-wide domain.
	n.Offload("c1#1", "c1", ClassRuntime, 50)
	check(t, n)
	if n.ResidentBytes() != 150*ps {
		t.Fatalf("resident = %d, want %d — non-opted tenant must not merge", n.ResidentBytes(), 150*ps)
	}
	if got := n.Stats().MergedPages; got != 70 {
		t.Fatalf("merged pages = %d, want unchanged 70", got)
	}
}

func TestFunctionScopeReportsNoMergedPages(t *testing.T) {
	// Per-function dedup (the default) is not merge activity: MergedPages
	// must stay zero so the default telemetry is byte-identical to the
	// pre-merge-domain behavior.
	n := New(Config{})
	n.Offload("c1", "fn", ClassRuntime, 100)
	n.Offload("c2", "fn", ClassRuntime, 100)
	n.Offload("c1", "fn", ClassInit, 50)
	n.Offload("c2", "fn", ClassInit, 50)
	check(t, n)
	st := n.Stats()
	if st.DedupHitPages != 150 {
		t.Fatalf("dedup hits = %d, want 150", st.DedupHitPages)
	}
	if st.MergedPages != 0 || st.UnmergeBreaks != 0 || st.CacheMissPages != 0 {
		t.Fatalf("default scope leaked merge/cache stats: %+v", st)
	}
}

func TestWriteBreakPrivatizesWithoutTouchingOthers(t *testing.T) {
	n := New(Config{MergeScope: MergeTenant, TenantOf: firstLetterTenant})
	n.Offload("a1#1", "a1", ClassRuntime, 100)
	n.Offload("a2#1", "a2", ClassRuntime, 100)
	check(t, n)

	res := n.WriteBreak("a2#1", "a2", ClassRuntime, 30)
	check(t, n)
	if res.Pages != 30 || res.Recalled != 0 {
		t.Fatalf("break = %+v, want 30 privatized, 0 recalled", res)
	}
	if res.Latency != 0 {
		t.Fatalf("break latency = %v, want 0 for a fully-hot master", res.Latency)
	}
	// The writer still holds 100 logical pages: 70 shared + 30 private.
	if got := n.OwnerLogicalBytes("a2#1"); got != 100*ps {
		t.Fatalf("writer logical = %d, want unchanged %d", got, 100*ps)
	}
	if got := n.OwnerPages("a2#1", "a2", ClassRuntime); got != 70 {
		t.Fatalf("writer shared holding = %d, want 70", got)
	}
	// The other owner is untouched — the CoW property.
	if got := n.OwnerPages("a1#1", "a1", ClassRuntime); got != 100 {
		t.Fatalf("bystander shared holding = %d, want 100", got)
	}
	if got := n.OwnerLogicalBytes("a1#1"); got != 100*ps {
		t.Fatalf("bystander logical = %d, want 100 pages", got)
	}
	if n.LogicalBytes() != 200*ps {
		t.Fatalf("logical = %d, want unchanged %d", n.LogicalBytes(), 200*ps)
	}
	// Resident grows by the private copy: master 100 + private 30.
	if n.ResidentBytes() != 130*ps {
		t.Fatalf("resident = %d, want %d", n.ResidentBytes(), 130*ps)
	}
	st := n.Stats()
	if st.UnmergeBreaks != 1 || st.UnmergedPages != 30 || st.UnmergeRecallPages != 0 {
		t.Fatalf("unmerge stats = %+v", st)
	}
	if n.unmergedPages != st.UnmergedPages {
		t.Fatalf("UnmergedPages() = %d, stats say %d", n.unmergedPages, st.UnmergedPages)
	}

	// A second break clamps to the remaining shared holding.
	res = n.WriteBreak("a2#1", "a2", ClassRuntime, 1000)
	check(t, n)
	if res.Pages != 70 || res.Recalled != 0 {
		t.Fatalf("clamped break = %+v, want 70/0", res)
	}
	if n.ResidentBytes() != 200*ps {
		t.Fatalf("resident = %d, want master + full private copy %d", n.ResidentBytes(), 200*ps)
	}

	// Nothing shared left: further breaks are free no-ops.
	if res = n.WriteBreak("a2#1", "a2", ClassRuntime, 10); res != (BreakResult{}) {
		t.Fatalf("break on empty shared holding = %+v, want zero", res)
	}
	// Private classes have nothing to unmerge.
	n.Offload("a1#1", "a1", ClassExec, 20)
	if res = n.WriteBreak("a1#1", "a1", ClassExec, 10); res != (BreakResult{}) {
		t.Fatalf("break on private class = %+v, want zero", res)
	}
	check(t, n)
}

func TestWriteBreakRecallsWhenNodeFull(t *testing.T) {
	// 100 pages of DRAM, 20 of spill, compression off: the master fills
	// DRAM, so only 20 of the 50 dirtied pages can be re-homed (demoting 20
	// master pages to spill); 30 come back to the writer.
	n := New(Config{
		MergeScope: MergeTenant, TenantOf: firstLetterTenant,
		DRAMBytes: 100 * ps, SpillBytes: 20 * ps, DisableCompression: true,
	})
	n.Offload("a1#1", "a1", ClassRuntime, 100)
	n.Offload("a2#1", "a2", ClassRuntime, 100)
	check(t, n)

	res := n.WriteBreak("a2#1", "a2", ClassRuntime, 50)
	check(t, n)
	if res.Pages != 20 || res.Recalled != 30 {
		t.Fatalf("break = %+v, want 20 privatized, 30 recalled", res)
	}
	if n.LogicalBytes() != 170*ps {
		t.Fatalf("logical = %d, want %d after recall", n.LogicalBytes(), 170*ps)
	}
	if got := n.TenantLogicalBytes("a"); got != 170*ps {
		t.Fatalf("tenant logical = %d, want %d", got, 170*ps)
	}
	if got := n.OwnerLogicalBytes("a2#1"); got != 70*ps {
		t.Fatalf("writer logical = %d, want 50 shared + 20 private", got)
	}
	if got := n.OwnerLogicalBytes("a1#1"); got != 100*ps {
		t.Fatalf("bystander logical = %d, want untouched 100 pages", got)
	}
	if st := n.Stats(); st.UnmergeRecallPages != 30 {
		t.Fatalf("unmerge recall pages = %d, want 30", st.UnmergeRecallPages)
	}
}

func TestWriteBreakPaysTierSurchargeOnceCached(t *testing.T) {
	const dec = decompressLatency
	n := New(Config{
		MergeScope: MergeTenant, TenantOf: firstLetterTenant,
		CacheBytes: 200 * ps,
	})
	n.Offload("a1#1", "a1", ClassRuntime, 100)
	n.Offload("a2#1", "a2", ClassRuntime, 100)
	for _, e := range n.entries {
		n.compressEntry(e)
	}
	check(t, n)

	// First break reads a fully-compressed master: 40 pages of decompress
	// surcharge, and the miss admits the master into the shared cache.
	res := n.WriteBreak("a2#1", "a2", ClassRuntime, 40)
	check(t, n)
	if want := 40 * dec; res.Latency != want {
		t.Fatalf("first break latency = %v, want %v", res.Latency, want)
	}
	// Second break hits the cache: the surcharge is waived.
	res = n.WriteBreak("a2#1", "a2", ClassRuntime, 40)
	check(t, n)
	if res.Latency != 0 {
		t.Fatalf("cached break latency = %v, want 0", res.Latency)
	}
	st := n.Stats()
	if st.CacheMissPages != 40 || st.CacheHitPages != 40 {
		t.Fatalf("cache miss/hit = %d/%d, want 40/40", st.CacheMissPages, st.CacheHitPages)
	}
}

func TestSharedCacheWaivesRecallSurcharge(t *testing.T) {
	const dec = decompressLatency
	n := New(Config{CacheBytes: 200 * ps})
	n.Offload("c1", "fn", ClassInit, 100)
	n.Offload("c2", "fn", ClassInit, 100)
	for _, e := range n.entries {
		n.compressEntry(e)
	}
	check(t, n)

	// First read misses, pays 40 pages of decompression, admits the master.
	cost := n.ReadCost("c1", "fn", ClassInit, 40)
	check(t, n)
	if want := 40 * dec; cost.Latency != want {
		t.Fatalf("miss latency = %v, want %v", cost.Latency, want)
	}
	if got := n.CacheUsedBytes(); got != 100*ps {
		t.Fatalf("cache used = %d, want whole master %d", got, 100*ps)
	}
	// Subsequent reads and recalls are served from the cached hot copy.
	if cost = n.ReadCost("c1", "fn", ClassInit, 40); cost.Latency != 0 {
		t.Fatalf("cached read latency = %v, want 0", cost.Latency)
	}
	if rc := n.Recall("c2", "fn", ClassInit, 100); rc.Latency != 0 {
		t.Fatalf("cached recall latency = %v, want 0", rc.Latency)
	}
	check(t, n)
	st := n.Stats()
	if st.CacheMissPages != 40 || st.CacheHitPages != 140 {
		t.Fatalf("cache miss/hit = %d/%d, want 40/140", st.CacheMissPages, st.CacheHitPages)
	}
}

func TestCacheSkipsOversizedMaster(t *testing.T) {
	n := New(Config{CacheBytes: 20 * ps})
	n.Offload("c1", "fn", ClassInit, 50)
	n.ReadCost("c1", "fn", ClassInit, 10)
	check(t, n)
	if got := n.CacheUsedBytes(); got != 0 {
		t.Fatalf("cache used = %d, want 0 — a 50-page master cannot fit a 20-page cache", got)
	}
	if st := n.Stats(); st.CacheMissPages != 10 {
		t.Fatalf("cache misses = %d, want 10", st.CacheMissPages)
	}
}

func TestCacheTracksMasterResize(t *testing.T) {
	n := New(Config{CacheBytes: 200 * ps})
	n.Offload("c1", "fn", ClassInit, 50)
	n.ReadCost("c1", "fn", ClassInit, 1)
	check(t, n)
	if got := n.CacheUsedBytes(); got != 50*ps {
		t.Fatalf("cache used = %d, want %d", got, 50*ps)
	}
	// A longer offload grows the master; the cached copy follows.
	n.Offload("c2", "fn", ClassInit, 80)
	check(t, n)
	if got := n.CacheUsedBytes(); got != 80*ps {
		t.Fatalf("cache used = %d after growth, want %d", got, 80*ps)
	}
	// Recalling the longest holder shrinks it.
	n.Recall("c2", "fn", ClassInit, 80)
	check(t, n)
	if got := n.CacheUsedBytes(); got != 50*ps {
		t.Fatalf("cache used = %d after shrink, want %d", got, 50*ps)
	}
	// Freeing the master drops the cached copy.
	n.Recall("c1", "fn", ClassInit, 50)
	check(t, n)
	if got := n.CacheUsedBytes(); got != 0 {
		t.Fatalf("cache used = %d after master freed, want 0", got)
	}
}

// TestCacheFairnessEviction drives the admission sequences of two tenants and
// checks the equal-share fairness invariant: every occupant ends within
// CacheBytes/n of the n active occupants, over-share tenants evicted
// coldest-first.
func TestCacheFairnessEviction(t *testing.T) {
	const masterPages = 10
	for _, tc := range []struct {
		name      string
		admits    []string // tenant letter per 10-page master, in order
		wantOcc   map[string]int64
		wantEvict int64
	}{
		{
			name:      "equal shares split the cache",
			admits:    []string{"a", "a", "a", "a", "a", "a", "a", "a", "b", "b", "b", "b"},
			wantOcc:   map[string]int64{"a": 50 * ps, "b": 40 * ps},
			wantEvict: 3,
		},
		{
			name:      "sole occupant owns the whole cache",
			admits:    []string{"a", "a", "a", "a", "a", "a", "a", "a"},
			wantOcc:   map[string]int64{"a": 80 * ps},
			wantEvict: 0,
		},
		{
			name:      "sole occupant still bounded by capacity",
			admits:    []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "a"},
			wantOcc:   map[string]int64{"a": 100 * ps},
			wantEvict: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{
				CacheBytes: 100 * ps,
				TenantOf:   firstLetterTenant,
			})
			counts := map[string]int{}
			for _, tenant := range tc.admits {
				fn := tenant + string(rune('0'+counts[tenant]))
				counts[tenant]++
				owner := fn + "#1"
				n.Offload(owner, fn, ClassInit, masterPages)
				n.ReadCost(owner, fn, ClassInit, 1) // miss admits the master
				check(t, n)
			}
			occ := map[string]int64{}
			for _, u := range n.CacheOccupancies() {
				occ[u.Tenant] = u.LogicalBytes
			}
			for tenant, want := range tc.wantOcc {
				if occ[tenant] != want {
					t.Fatalf("tenant %s occupancy = %d, want %d (all: %v)", tenant, occ[tenant], want, occ)
				}
			}
			if len(occ) != len(tc.wantOcc) {
				t.Fatalf("occupants = %v, want %v", occ, tc.wantOcc)
			}
			if got := n.Stats().CacheEvictions; got != tc.wantEvict {
				t.Fatalf("evictions = %d, want %d", got, tc.wantEvict)
			}
		})
	}
}

func TestCacheEvictsColdestFirst(t *testing.T) {
	n := New(Config{CacheBytes: 30 * ps, TenantOf: firstLetterTenant})
	for _, fn := range []string{"a0", "a1"} {
		n.Offload(fn+"#1", fn, ClassInit, 10)
		n.ReadCost(fn+"#1", fn, ClassInit, 1)
	}
	n.ReadCost("a0#1", "a0", ClassInit, 1) // touch a0 MRU: a1 is now coldest
	// Tenant b's admission halves a's share: a must shed its coldest master.
	n.Offload("b0#1", "b0", ClassInit, 10)
	n.ReadCost("b0#1", "b0", ClassInit, 1)
	check(t, n)

	before := n.Stats()
	if n.ReadCost("a0#1", "a0", ClassInit, 1); n.Stats().CacheHitPages != before.CacheHitPages+1 {
		t.Fatal("a0 (recently touched) should have survived the rebalance")
	}
	if n.ReadCost("a1#1", "a1", ClassInit, 1); n.Stats().CacheMissPages != before.CacheMissPages+1 {
		t.Fatal("a1 (coldest) should have been the eviction victim")
	}
}

// TestIsolationPropertyRandomized is the merge security property test: under
// a random interleaving of offloads, recalls, CoW breaks, and discards across
// three tenants (two opted into cross-tenant merging, one not), no shared
// master is ever reachable from two tenants unless both opted in, and no
// write break ever changes another owner's logical holdings.
func TestIsolationPropertyRandomized(t *testing.T) {
	n := New(Config{
		MergeScope: MergeCrossTenant,
		MergeOptIn: []string{"a", "b"},
		TenantOf:   firstLetterTenant,
		DRAMBytes:  300 * ps, SpillBytes: 200 * ps,
		CacheBytes: 80 * ps,
	})
	rng := rand.New(rand.NewSource(7))
	fns := []string{"a1", "a2", "b1", "c1", "c2"}
	var owners []string
	ownerFn := map[string]string{}
	for _, fn := range fns {
		for _, c := range []string{"#1", "#2"} {
			owners = append(owners, fn+c)
			ownerFn[fn+c] = fn
		}
	}
	classes := []Class{ClassRuntime, ClassInit, ClassExec}

	for step := 0; step < 4000; step++ {
		owner := owners[rng.Intn(len(owners))]
		fn := ownerFn[owner]
		cls := classes[rng.Intn(len(classes))]
		switch op := rng.Intn(10); {
		case op < 5:
			n.Offload(owner, fn, cls, 1+rng.Intn(30))
		case op < 7:
			n.Recall(owner, fn, cls, 1+rng.Intn(30))
		case op < 9:
			// Snapshot every other owner before the CoW break: a break must
			// never move another owner's logical bytes.
			snap := map[string]int64{}
			for _, o := range owners {
				if o != owner {
					snap[o] = n.OwnerLogicalBytes(o)
				}
			}
			n.WriteBreak(owner, fn, cls, 1+rng.Intn(30))
			for o, want := range snap {
				if got := n.OwnerLogicalBytes(o); got != want {
					t.Fatalf("step %d: break by %s moved %s's logical bytes %d → %d",
						step, owner, o, want, got)
				}
			}
		default:
			n.DiscardOwner(owner)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Independent reachability check (not via checkIsolation's domain
		// strings): collect the tenants referencing each shared master.
		for key, e := range n.entries {
			if !e.shared {
				continue
			}
			seen := map[string]bool{}
			for o := range e.refs {
				seen[firstLetterTenant(ownerFn[o])] = true
			}
			if len(seen) <= 1 {
				continue
			}
			for tenant := range seen {
				if tenant != "a" && tenant != "b" {
					t.Fatalf("step %d: master %v reachable from tenants %v including non-opted %q",
						step, key, seen, tenant)
				}
			}
		}
	}
}

// TestMergeSavingsMonotoneInScope is the metamorphic check: replaying one
// identical trace at widening scopes never increases resident bytes at any
// step (function ⊇ tenant ⊇ cross-tenant domains partition ever coarser), and
// merge activity grows with scope.
func TestMergeSavingsMonotoneInScope(t *testing.T) {
	type replayResult struct {
		resident []int64
		merged   int64
	}
	replay := func(scope MergeScope) replayResult {
		n := New(Config{
			MergeScope: scope,
			MergeOptIn: []string{"a", "b"},
			TenantOf:   firstLetterTenant,
		})
		rng := rand.New(rand.NewSource(99))
		fns := []string{"a1", "a2", "b1", "b2"}
		var out replayResult
		for step := 0; step < 600; step++ {
			i := rng.Intn(len(fns))
			fn := fns[i]
			owner := fn + "#0"
			cls := ClassRuntime
			if rng.Intn(4) == 0 {
				cls = ClassInit
			}
			if rng.Intn(10) < 7 {
				n.Offload(owner, fn, cls, 1+rng.Intn(40))
			} else {
				n.Recall(owner, fn, cls, 1+rng.Intn(40))
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("scope %s step %d: %v", scope, step, err)
			}
			out.resident = append(out.resident, n.ResidentBytes())
		}
		out.merged = n.Stats().MergedPages
		return out
	}

	fun := replay(MergeFunction)
	ten := replay(MergeTenant)
	cross := replay(MergeCrossTenant)

	var sumF, sumT, sumC int64
	for i := range fun.resident {
		if fun.resident[i] < ten.resident[i] || ten.resident[i] < cross.resident[i] {
			t.Fatalf("step %d: resident not monotone in scope: function %d, tenant %d, cross %d",
				i, fun.resident[i], ten.resident[i], cross.resident[i])
		}
		sumF += fun.resident[i]
		sumT += ten.resident[i]
		sumC += cross.resident[i]
	}
	if !(sumF > sumT && sumT > sumC) {
		t.Fatalf("widening scope should strictly reduce resident footprint on this trace: %d / %d / %d",
			sumF, sumT, sumC)
	}
	if fun.merged != 0 {
		t.Fatalf("function scope merged %d pages, want 0", fun.merged)
	}
	if !(ten.merged > 0 && cross.merged > ten.merged) {
		t.Fatalf("merged pages should grow with scope: tenant %d, cross %d", ten.merged, cross.merged)
	}
}
