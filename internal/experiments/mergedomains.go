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

// MergeDomainsOptions sizes the sweep.
type MergeDomainsOptions struct {
	// Scopes swept. Default: function, tenant, cross-tenant.
	Scopes []memnode.MergeScope
	// WriteRatios are the RuntimeWriteRatio values swept per scope: 0 is the
	// read-only density shape, positive values turn every function write-hot
	// and storm the CoW unmerge path. Default {0, 0.3}.
	WriteRatios []float64
	// DRAMMB / SpillMB size the node's tiers. Defaults 256 / 512.
	DRAMMB  int
	SpillMB int
	// CacheMB sizes the shared multi-tenant cache tier, enabled at the
	// widened scopes (merge masters are what it caches). Default 64.
	CacheMB int
	// Nodes is the rack's compute-node count. Default 3.
	Nodes int
	// Tenants is how many tenants the 11 benchmarks are split across
	// (round-robin). All but the last opt into cross-tenant merging, so the
	// sweep always carries a non-consenting tenant across the security
	// boundary. Default 3.
	Tenants int
	// Duration of the generated trace. Default 15 m.
	Duration time.Duration
	// KeepAlive of idle containers. Default 10 m.
	KeepAlive time.Duration
	Seed      int64
}

// MergeDomains measures what widening the merge domain buys and costs: the
// mixed 11-benchmark workload is split across tenants and run at each
// (scope, write ratio) cell on a rack whose pool-side node merges
// content-identical runtime pages per-function, per-tenant, or rack-wide
// across opted-in tenants. Read-only rows show the density win (amplification
// grows with scope); write-hot rows show the CoW unmerge storm that claws it
// back. The function-scope, read-only, cache-off cell is configured exactly
// like the ext-pool-density dedup cell and reproduces its numbers.
func MergeDomains(opt MergeDomainsOptions) []MergeDomainsRow {
	if len(opt.Scopes) == 0 {
		opt.Scopes = memnode.MergeScopes()
	}
	if len(opt.WriteRatios) == 0 {
		opt.WriteRatios = []float64{0, 0.3}
	}
	if opt.DRAMMB <= 0 {
		opt.DRAMMB = 256
	}
	if opt.SpillMB <= 0 {
		opt.SpillMB = 512
	}
	if opt.CacheMB <= 0 {
		opt.CacheMB = 64
	}
	if opt.Nodes <= 0 {
		opt.Nodes = 3
	}
	if opt.Tenants <= 0 {
		opt.Tenants = 3
	}
	if opt.Duration <= 0 {
		opt.Duration = 15 * time.Minute
	}
	if opt.KeepAlive <= 0 {
		opt.KeepAlive = 10 * time.Minute
	}

	fns := mixedWorkload(opt.Duration, opt.Seed)

	// Round-robin tenancy over the benchmark list, and opt every tenant but
	// the last into cross-tenant merging.
	tenantOf := make(map[string]string, len(fns))
	for i, f := range fns {
		tenantOf[f.prof.Name] = fmt.Sprintf("t%d", i%opt.Tenants)
	}
	var optIn []string
	for i := 0; i < opt.Tenants-1; i++ {
		optIn = append(optIn, fmt.Sprintf("t%d", i))
	}
	if len(optIn) == 0 {
		optIn = []string{"t0"}
	}

	run := func(scope memnode.MergeScope, ratio float64) MergeDomainsRow {
		nodeCfg := memnode.Config{
			DRAMBytes:          int64(opt.DRAMMB) << 20,
			SpillBytes:         int64(opt.SpillMB) << 20,
			DisableCompression: true, // isolate merging from zswap effects
			MergeScope:         scope,
			MergeOptIn:         optIn,
			TenantOf:           func(fn string) string { return tenantOf[fn] },
		}
		if scope != memnode.MergeFunction {
			nodeCfg.CacheBytes = int64(opt.CacheMB) << 20
		}
		c := runMixedRack(cluster.Config{
			Nodes: opt.Nodes,
			Node: faas.Config{
				KeepAliveTimeout: opt.KeepAlive,
				Seed:             opt.Seed,
			},
			Pool: rmem.Config{Node: &nodeCfg},
		}, FaaSMem, fns, ratio, opt.Duration+opt.KeepAlive+time.Minute)

		st := c.Stats()
		row := MergeDomainsRow{Scope: scope, WriteRatio: ratio, Requests: st.Requests}
		if st.Requests > 0 {
			row.ColdStartRatio = float64(st.ColdStarts) / float64(st.Requests)
		}
		if mn := st.MemNode; mn != nil {
			row.LogicalPeakMB = float64(mn.PeakLogicalBytes) / 1e6
			row.ResidentPeakMB = float64(mn.PeakResidentBytes) / 1e6
			if mn.PeakResidentBytes > 0 {
				row.Amplification = float64(mn.PeakLogicalBytes) / float64(mn.PeakResidentBytes)
			} else {
				row.Amplification = 1
			}
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

	rows := make([]MergeDomainsRow, len(opt.Scopes)*len(opt.WriteRatios))
	runGrid(len(rows), func(i int) {
		rows[i] = run(opt.Scopes[i/len(opt.WriteRatios)], opt.WriteRatios[i%len(opt.WriteRatios)])
	})
	return rows
}
