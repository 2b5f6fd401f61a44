package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/faasmem/faasmem/internal/memnode"
)

func TestMergeDomainsSweep(t *testing.T) {
	rows := sharedRows[MergeDomainsRow](t, "ext-merge")
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 scopes x 2 write ratios", len(rows))
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
// ext-pool-density 256 MB dedup cell, so the shared columns must agree
// exactly.
func TestMergeDomainsReproducesPoolDensity(t *testing.T) {
	m := mergeAt(sharedRows[MergeDomainsRow](t, "ext-merge"), memnode.MergeFunction, 0)
	d := densityAt(sharedRows[PoolDensityRow](t, "ext-pool-density"), 256, DensityDedup)
	if m.Requests == 0 ||
		m.Requests != d.Requests ||
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
	want := MergeDomains(7)
	for _, w := range []int{2, 8} {
		SetWorkers(w)
		got := MergeDomains(7)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("rows differ at %d workers:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}
