package faas

import (
	"math/rand"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// TestMemNodeLedgerInvariants runs a platform on a memnode-backed pool with
// tiers small enough to force compression and spill, and checks at every
// virtual second that (a) the node's internal invariants hold and (b) the
// pool's byte ledger equals the node's logical bytes — i.e. logical bytes
// always equal the sum of the containers' outstanding offloads.
func TestMemNodeLedgerInvariants(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout: 5 * time.Second,
		NodeID:           "n0",
		Pool: rmem.Config{Node: &memnode.Config{
			DRAMBytes:  1 * workload.MB,
			SpillBytes: 8 * workload.MB,
		}},
		Seed: 1,
	}, offloadAllPolicy{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{
		0, 10 * time.Millisecond, // scale-out: two containers, dedup fan-in
		2 * time.Second, 10 * time.Second, // warm reuses that fault pages back
	})
	for i := 1; i <= 30; i++ {
		e.At(simtime.Time(i)*simtime.Time(time.Second), func(_ *simtime.Engine) {
			node := p.Pool().Node()
			if err := node.CheckInvariants(); err != nil {
				t.Fatalf("t=%ds: %v", i, err)
			}
			if got, want := p.Pool().Used(), node.Stats().LogicalBytes; got != want {
				t.Fatalf("t=%ds: pool ledger %d != node logical %d", i, got, want)
			}
		})
	}
	e.Run()

	node := p.Pool().Node()
	st := node.Stats()
	if st.PeakLogicalBytes == 0 {
		t.Fatal("nothing was ever offloaded to the node")
	}
	if st.DedupHitPages == 0 {
		t.Fatal("concurrent containers of one function produced no dedup hits")
	}
	if st.CompressedPages == 0 && st.SpilledPages == 0 {
		t.Fatal("1 MB DRAM never pushed pages into the cold tiers")
	}
	if f.stats.FaultPages == 0 {
		t.Fatal("warm reuses never faulted offloaded pages back")
	}
	// Keep-alive expired and every container recycled: all references
	// released, so the node must be empty again.
	if st.LogicalBytes != 0 || st.ResidentBytes != 0 {
		t.Fatalf("node not drained after recycle: %+v", st)
	}
	if err := node.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMemNodeLedgerInvariantsRandomized is the stress sibling of
// TestMemNodeLedgerInvariants: random invocation interleavings over several
// seeds, tight tier sizes, tenant quota boundaries, widened merge scopes with
// copy-on-write write-hot functions, the shared cache tier, and injected
// fault plans (outages, tier storms, retry/timeout/re-init recovery all
// interleave with offloads, faults, unmerge breaks, discards and evictions).
// Every virtual second the node's internal invariants — including merge
// isolation and cache fairness — must hold and the pool ledger must equal the
// node's logical bytes; after the drain the node must be empty.
func TestMemNodeLedgerInvariantsRandomized(t *testing.T) {
	var offloaded, faulted, quotaRejects, recovered int64
	var merged, breaks, cacheTraffic int64
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodeCfg := memnode.Config{
			DRAMBytes:  1 * workload.MB,
			SpillBytes: int64(2+rng.Intn(7)) * workload.MB,
			// Seed 4 runs the no-dedup baseline; the rest keep shared masters
			// so merge, unmerge, and cache paths are guaranteed coverage.
			DisableDedup:       seed == 4,
			DisableCompression: rng.Intn(3) == 0,
		}
		if rng.Intn(2) == 0 {
			// Quota boundary: one tenant's footprint crosses the cap.
			nodeCfg.TenantQuotaBytes = int64(1+rng.Intn(2)) * workload.MB / 2
		}
		// Merge-domain coverage rotates deterministically with the seed:
		// per-function, tenant-wide, and cross-tenant scopes, with shared and
		// split tenancy, partial opt-in, and the cache tier on some seeds.
		nodeCfg.MergeScope = []memnode.MergeScope{
			memnode.MergeCrossTenant, memnode.MergeTenant, memnode.MergeCrossTenant,
			memnode.MergeFunction, memnode.MergeTenant,
		}[seed%5]
		tenantBySecondLetter := func(fn string) string { return "t" + fn[1:] }
		if seed%2 == 1 {
			nodeCfg.TenantOf = func(string) string { return "t0" }
		} else {
			nodeCfg.TenantOf = tenantBySecondLetter // fa → ta, fb → tb
		}
		switch seed {
		case 1: // shared tenant, opted in: rack-wide master
			nodeCfg.MergeOptIn = []string{"t0"}
		case 2: // split tenants, both opted in: merging crosses the edge
			nodeCfg.MergeOptIn = []string{"ta", "tb"}
		}
		writeRatio := 0.0
		if seed != 3 {
			writeRatio = 0.1 + 0.4*rng.Float64()
		}
		if seed >= 3 {
			nodeCfg.CacheBytes = workload.MB / 2
			nodeCfg.CacheShares = map[string]float64{"ta": 1 + rng.Float64()*3}
		}
		var plan *faultinject.Plan
		if seed != 1 {
			// Seed 1 stays fault-free as the interleaving-only control. The
			// default cadences (75–300s between windows) would leave a
			// 1-minute run mostly quiet, so compress them to guarantee
			// outages overlap the invocation burst.
			fcfg := faultinject.Config{
				Horizon:   time.Minute,
				Intensity: 0.6 + 0.4*rng.Float64(),
				Seed:      seed,
			}
			for k := faultinject.LinkFlap; k <= faultinject.LatencySpike; k++ {
				fcfg.Cadence[k] = time.Duration(6+rng.Intn(8)) * time.Second
				fcfg.BaseDur[k] = time.Duration(2+rng.Intn(3)) * time.Second
			}
			plan = faultinject.New(fcfg)
		}
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout: time.Duration(3+rng.Intn(5)) * time.Second,
			NodeID:           "n0",
			Pool:             rmem.Config{Node: &nodeCfg, Faults: plan},
			Seed:             seed,
		}, offloadAllPolicy{})
		for _, name := range []string{"fa", "fb"} {
			prof := *tinyProfile()
			prof.Name = name
			prof.RuntimeWriteRatio = writeRatio
			p.Register(name, &prof)
			var times []simtime.Time
			for i, n := 0, 8+rng.Intn(12); i < n; i++ {
				times = append(times, simtime.Time(rng.Int63n(int64(25*time.Second))))
			}
			p.ScheduleInvocations(name, times)
		}
		for i := 1; i <= 45; i++ {
			e.At(simtime.Time(i)*simtime.Time(time.Second), func(_ *simtime.Engine) {
				node := p.Pool().Node()
				if err := node.CheckInvariants(); err != nil {
					t.Fatalf("seed %d t=%ds: %v", seed, i, err)
				}
				if got, want := p.Pool().Used(), node.Stats().LogicalBytes; got != want {
					t.Fatalf("seed %d t=%ds: pool ledger %d != node logical %d", seed, i, got, want)
				}
			})
		}
		e.Run()

		node := p.Pool().Node()
		st := node.Stats()
		if err := node.CheckInvariants(); err != nil {
			t.Fatalf("seed %d after drain: %v", seed, err)
		}
		if st.LogicalBytes != 0 || st.ResidentBytes != 0 {
			t.Fatalf("seed %d: node not drained after recycle: %+v", seed, st)
		}
		if got, want := p.Pool().Used(), int64(0); got != want {
			t.Fatalf("seed %d: pool ledger %d after drain, want 0", seed, got)
		}
		// The node ledger must drain too: a recycle mid-request (cold
		// re-init) takes the in-flight exec charge with it.
		if local, remote := p.NodeLocalBytes(), p.NodeRemoteBytes(); local != 0 || remote != 0 {
			t.Fatalf("seed %d: node ledger holds %d local, %d remote bytes after drain, want 0", seed, local, remote)
		}
		agg := p.Aggregate()
		rec := p.Recovery()
		if total := rec.DoneNormal + rec.DoneRescheduled + rec.DoneReinit; total != agg.Requests {
			t.Fatalf("seed %d: completion classes %d != requests %d", seed, total, agg.Requests)
		}
		offloaded += st.PeakLogicalBytes
		faulted += agg.FaultPages
		quotaRejects += st.QuotaRejectPages
		recovered += rec.FetchRetries + int64(rec.ColdReinits)
		merged += st.MergedPages
		breaks += st.UnmergeBreaks
		cacheTraffic += st.CacheHitPages + st.CacheMissPages
	}
	// The seeds must collectively exercise the paths under test; these are
	// deterministic, so failures here mean the generator went quiet, not
	// flakiness.
	if offloaded == 0 {
		t.Error("no seed ever offloaded to the node")
	}
	if faulted == 0 {
		t.Error("no seed ever faulted pages back")
	}
	if quotaRejects == 0 {
		t.Error("no seed ever hit the tenant quota boundary")
	}
	if recovered == 0 {
		t.Error("no seed ever exercised the fetch-retry/re-init machinery")
	}
	if merged == 0 {
		t.Error("no seed ever merged pages onto a widened-domain master")
	}
	if breaks == 0 {
		t.Error("no seed ever broke a merge master with a copy-on-write unmerge")
	}
	if cacheTraffic == 0 {
		t.Error("no seed ever touched the shared cache tier")
	}
}
