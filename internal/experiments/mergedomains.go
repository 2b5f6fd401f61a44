package experiments

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
)

// MergeDomainsRow is one (merge scope, runtime write ratio) cell of the
// ext-merge sweep.
type MergeDomainsRow struct {
	Scope      memnode.MergeScope `json:"scope" col:"scope"`
	WriteRatio float64            `json:"write_ratio" col:"write,%.2f"`
	// Requests and the cold-start ratio: widening the merge domain must not
	// change scheduling behavior, only pool-side density.
	Requests       int     `json:"requests" col:"requests"`
	ColdStartRatio float64 `json:"cold_start_ratio" col:"cold-start,%.2f%%,pct"`
	// Peak logical vs resident bytes and their ratio — the effective-capacity
	// multiplier merging buys at this scope.
	LogicalPeakMB  float64 `json:"logical_peak_mb" col:"logical peak,%.0f MB"`
	ResidentPeakMB float64 `json:"resident_peak_mb" col:"resident peak,%.0f MB"`
	Amplification  float64 `json:"amplification" col:"amplification,%.2fx"`
	// DedupHitPages counts all shared-master admissions; MergedPages the
	// subset landing on a domain wider than the page's own function.
	DedupHitPages int64 `json:"dedup_hit_pages"`
	MergedPages   int64 `json:"merged_pages" col:"merged"`
	// Copy-on-write unmerge storms under write-hot workloads: break events,
	// pages privatized, and pages the node had to hand back to the writer.
	UnmergeBreaks      int64 `json:"unmerge_breaks" col:"breaks"`
	UnmergedPages      int64 `json:"unmerged_pages" col:"unmerged"`
	UnmergeRecallPages int64 `json:"unmerge_recall_pages"`
	// Shared cache tier effectiveness (zero at function scope, where the
	// cache is off).
	CacheHitPct    float64 `json:"cache_hit_pct" col:"cache hit,%.1f%%"`
	CacheEvictions int64   `json:"cache_evictions" col:"cache evict"`
	// IsolationOK records the post-drain CheckInvariants verdict, which
	// includes the cross-tenant isolation and cache fairness properties.
	IsolationOK bool `json:"isolation_ok" col:"isolation,ok|VIOLATED"`
}

// MergeDomains measures what widening the merge domain buys and costs: the
// mixed 11-benchmark workload is split across tenants and run at each
// (scope, write ratio) cell on a rack whose pool-side node merges
// content-identical runtime pages per-function, per-tenant, or rack-wide
// across opted-in tenants. Read-only rows show the density win (amplification
// grows with scope); write-hot rows show the CoW unmerge storm that claws it
// back. The function-scope, read-only, cache-off cell is configured exactly
// like the ext-pool-density dedup cell and reproduces its numbers.
func MergeDomains(seed int64) []MergeDomainsRow {
	// The rack: 3 compute nodes, a 256 MB DRAM tier, a 512 MB spill tier,
	// a 64 MB shared cache at the widened scopes (merge masters are what it
	// caches), and the 11 benchmarks split round-robin across 3 tenants over
	// a 15-minute trace. All but the last tenant opt into cross-tenant
	// merging, so the sweep always carries a non-consenting tenant across
	// the security boundary.
	const (
		nodes     = 3
		dramMB    = 256
		spillMB   = 512
		cacheMB   = 64
		tenants   = 3
		keepAlive = 10 * time.Minute
		duration  = 15 * time.Minute
	)
	// Each scope runs read-only (0) and with every function write-hot
	// (0.3), which storms the CoW unmerge path.
	scopes := memnode.MergeScopes()
	writeRatios := []float64{0, 0.3}

	fns := mixedWorkload(duration, seed)

	// Round-robin tenancy over the benchmark list, and opt every tenant but
	// the last into cross-tenant merging.
	tenantOf := make(map[string]string, len(fns))
	for i, f := range fns {
		tenantOf[f.prof.Name] = fmt.Sprintf("t%d", i%tenants)
	}
	var optIn []string
	for i := 0; i < tenants-1; i++ {
		optIn = append(optIn, fmt.Sprintf("t%d", i))
	}

	run := func(scope memnode.MergeScope, ratio float64) MergeDomainsRow {
		nodeCfg := memnode.Config{
			DRAMBytes:          dramMB << 20,
			SpillBytes:         spillMB << 20,
			DisableCompression: true, // isolate merging from zswap effects
			MergeScope:         scope,
			MergeOptIn:         optIn,
			TenantOf:           func(fn string) string { return tenantOf[fn] },
		}
		if scope != memnode.MergeFunction {
			nodeCfg.CacheBytes = cacheMB << 20
		}
		c := runMixedRack(cluster.Config{
			Nodes: nodes,
			Node: faas.Config{
				KeepAliveTimeout: keepAlive,
				Seed:             seed,
			},
			Pool: rmem.Config{Node: &nodeCfg},
		}, FaaSMem, fns, ratio, duration+keepAlive+time.Minute)

		st := c.Stats()
		row := MergeDomainsRow{Scope: scope, WriteRatio: ratio, Requests: st.Requests}
		if st.Requests > 0 {
			row.ColdStartRatio = float64(st.ColdStarts) / float64(st.Requests)
		}
		if mn := st.MemNode; mn != nil {
			row.LogicalPeakMB, row.ResidentPeakMB, row.Amplification = memNodePeaks(mn)
			row.DedupHitPages = mn.DedupHitPages
			row.MergedPages = mn.MergedPages
			row.UnmergeBreaks = mn.UnmergeBreaks
			row.UnmergedPages = mn.UnmergedPages
			row.UnmergeRecallPages = mn.UnmergeRecallPages
			if lookups := mn.CacheHitPages + mn.CacheMissPages; lookups > 0 {
				row.CacheHitPct = 100 * float64(mn.CacheHitPages) / float64(lookups)
			}
			row.CacheEvictions = mn.CacheEvictions
		}
		row.IsolationOK = c.Pool().Node().CheckInvariants() == nil
		return row
	}

	rows := make([]MergeDomainsRow, len(scopes)*len(writeRatios))
	runGrid(len(rows), func(i int) {
		rows[i] = run(scopes[i/len(writeRatios)], writeRatios[i%len(writeRatios)])
	})
	return rows
}
