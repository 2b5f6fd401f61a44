package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
)

// quickMerge is a small sweep that still builds cross-function fan-in.
func quickMerge(seed int64) MergeDomainsOptions {
	return MergeDomainsOptions{
		DRAMMB:   192,
		Duration: 4 * time.Minute,
		Seed:     seed,
	}
}

func TestMergeDomainsSweep(t *testing.T) {
	rows := MergeDomains(quickMerge(1))
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 scopes x 2 write ratios", len(rows))
	}
	type cell struct {
		scope memnode.MergeScope
		ratio float64
	}
	byCell := map[cell]MergeDomainsRow{}
	for _, r := range rows {
		if !r.IsolationOK {
			t.Fatalf("isolation/fairness invariants violated in row %+v", r)
		}
		byCell[cell{r.Scope, r.WriteRatio}] = r
	}

	fun := byCell[cell{memnode.MergeFunction, 0}]
	ten := byCell[cell{memnode.MergeTenant, 0}]
	cross := byCell[cell{memnode.MergeCrossTenant, 0}]

	// Acceptance: widening the merge domain buys effective capacity over
	// per-function dedup, monotonically.
	if !(cross.Amplification > ten.Amplification && ten.Amplification > fun.Amplification) {
		t.Fatalf("amplification not monotone in scope: function %.3f, tenant %.3f, cross %.3f",
			fun.Amplification, ten.Amplification, cross.Amplification)
	}
	if fun.MergedPages != 0 {
		t.Fatalf("function scope merged %d pages, want 0", fun.MergedPages)
	}
	if !(ten.MergedPages > 0 && cross.MergedPages > ten.MergedPages) {
		t.Fatalf("merged pages should grow with scope: tenant %d, cross %d",
			ten.MergedPages, cross.MergedPages)
	}
	// Read-only rows never break.
	for _, r := range []MergeDomainsRow{fun, ten, cross} {
		if r.UnmergeBreaks != 0 || r.UnmergedPages != 0 {
			t.Fatalf("read-only row broke masters: %+v", r)
		}
	}
	// Widening scope must not change scheduling.
	if ten.Requests != fun.Requests || cross.Requests != fun.Requests {
		t.Fatalf("requests differ across scopes: %d/%d/%d",
			fun.Requests, ten.Requests, cross.Requests)
	}

	// Write-hot rows storm the CoW unmerge path at every scope with shared
	// masters, and the storm erodes the density win.
	for _, sc := range memnode.MergeScopes() {
		hot := byCell[cell{sc, 0.3}]
		if hot.UnmergeBreaks == 0 || hot.UnmergedPages == 0 {
			t.Fatalf("write-hot %s row produced no unmerge breaks: %+v", sc, hot)
		}
	}
	hotCross := byCell[cell{memnode.MergeCrossTenant, 0.3}]
	if hotCross.Amplification >= cross.Amplification {
		t.Fatalf("write-hot cross amplification %.3f should fall below read-only %.3f",
			hotCross.Amplification, cross.Amplification)
	}
	// The cache tier is live at widened scopes and off at function scope.
	if fun.CacheHitPct != 0 || fun.CacheEvictions != 0 {
		t.Fatalf("function scope should run with the cache off: %+v", fun)
	}
	if cross.CacheHitPct <= 0 {
		t.Fatalf("cross-tenant cache never hit: %+v", cross)
	}

	var sb strings.Builder
	printRows(&sb, "cross-tenant merge domains", rows)
	if !strings.Contains(sb.String(), "cross-tenant merge domains") ||
		strings.Contains(sb.String(), "VIOLATED") {
		t.Fatalf("rendered table:\n%s", sb.String())
	}
}

// TestMergeDomainsReproducesPoolDensity is the zero-cost metamorphic check:
// the function-scope, read-only, cache-off cell is the same simulation as the
// ext-pool-density dedup cell, so the shared columns must agree exactly.
func TestMergeDomainsReproducesPoolDensity(t *testing.T) {
	mrows := MergeDomains(MergeDomainsOptions{
		Scopes:      []memnode.MergeScope{memnode.MergeFunction},
		WriteRatios: []float64{0},
		DRAMMB:      192,
		Duration:    4 * time.Minute,
		Seed:        1,
	})
	if len(mrows) != 1 {
		t.Fatalf("rows = %d, want 1", len(mrows))
	}
	m := mrows[0]

	var d PoolDensityRow
	for _, r := range PoolDensity(quickDensity(1)) {
		if r.Mode == DensityDedup {
			d = r
		}
	}
	if m.Requests != d.Requests ||
		m.ColdStartRatio != d.ColdStartRatio ||
		m.LogicalPeakMB != d.LogicalPeakMB ||
		m.ResidentPeakMB != d.ResidentPeakMB ||
		m.Amplification != d.Amplification ||
		m.DedupHitPages != d.DedupHitPages {
		t.Fatalf("function-scope merge cell diverged from the pool-density dedup cell:\nmerge   %+v\ndensity %+v", m, d)
	}
	if m.MergedPages != 0 || m.UnmergeBreaks != 0 || m.CacheEvictions != 0 {
		t.Fatalf("merge machinery active in the equivalence cell: %+v", m)
	}
}

func TestMergeDomainsDeterministicAcrossWidths(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	want := MergeDomains(quickMerge(7))
	for _, w := range []int{2, 8} {
		SetWorkers(w)
		got := MergeDomains(quickMerge(7))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("rows differ at %d workers:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}
