package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPoolComparisonShape(t *testing.T) {
	if rows := sharedRows[PoolRow](t, "ext-pools"); len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestColdStartTimingShape(t *testing.T) {
	if rows := sharedRows[ColdStartTimingRow](t, "ext-coldstart"); len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestExtensionPrinters(t *testing.T) {
	var sb strings.Builder
	printRows(&sb, "§9", []PoolRow{{Pool: "cxl", P95: 0.1, P99: 0.2, AvgLocalMB: 500, OffloadedMB: 900}})
	printRows(&sb, "§8.3.2", []ColdStartTimingRow{{Case: "bursty", Corrected: true, P99: 0.2, AvgMemMB: 600}})
	for _, want := range []string{"§9", "§8.3.2", "cxl", "cold-start-aware"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestRackDensityShape(t *testing.T) {
	rows := sharedRows[RackRow](t, "ext-rack")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, fm := rows[0], rows[1]
	if base.Policy != Baseline || fm.Policy != FaaSMem {
		t.Fatal("row order")
	}
	if base.Requests == 0 || fm.Requests != base.Requests {
		t.Fatalf("requests mismatch: %d vs %d", base.Requests, fm.Requests)
	}
}

func TestReadaheadShape(t *testing.T) {
	rows := sharedRows[ReadaheadRow](t, "ext-readahead")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Window != 0 {
		t.Fatal("first row should be the no-readahead baseline")
	}
}

func TestKeepAliveStrategiesShape(t *testing.T) {
	if rows := sharedRows[KeepAliveRow](t, "ext-keepalive"); len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// pearson computes the Pearson correlation coefficient between two
// equal-length samples, the statistic behind the paper's §8.6 claims
// ("positively correlated with the request loads", "a negative correlation
// with the standard deviation of request intervals"). It returns 0 for
// fewer than two points or zero variance.
func pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{10, 8, 6, 4, 2}
	if got := pearson(xs, up); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive = %v", got)
	}
	if got := pearson(xs, down); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative = %v", got)
	}
	if pearson(xs, []float64{5, 5, 5, 5, 5}) != 0 {
		t.Error("zero variance should be 0")
	}
	if pearson(xs, xs[:3]) != 0 {
		t.Error("length mismatch should be 0")
	}
	if pearson(nil, nil) != 0 {
		t.Error("empty should be 0")
	}
	// Noisy positive relationship stays clearly positive.
	noisy := []float64{2.2, 3.7, 6.1, 8.4, 9.8}
	if got := pearson(xs, noisy); got < 0.9 {
		t.Errorf("noisy positive = %v, want > 0.9", got)
	}
}

// TestFig16Correlations checks the sample behind §8.6's correlation claims
// (claims fig16-corr-load and fig16-corr-sigma): each app's density is
// correlated over 20 traces whose load and interval σ both vary.
func TestFig16Correlations(t *testing.T) {
	rows := sharedRows[Fig16Row](t, "fig16")
	for _, app := range figApps {
		var load, sigma []float64
		for _, r := range rows {
			if r.App == app {
				load = append(load, r.ReqPerMinute)
				sigma = append(sigma, r.IntervalSigmaSec)
			}
		}
		if len(load) != 20 {
			t.Errorf("%s: %d traces, want 20", app, len(load))
		}
		if slices.Min(load) == slices.Max(load) || slices.Min(sigma) == slices.Max(sigma) {
			t.Errorf("%s: load or interval σ does not vary across traces", app)
		}
	}
}

func TestPercentileSweepShape(t *testing.T) {
	rows := PercentileSweep(PercentileSweepOptions{Duration: 12 * time.Minute, Seed: 71})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	lo, hi := rows[0], rows[len(rows)-1]
	if lo.Percentile != 50 || hi.Percentile != 99 {
		t.Fatal("row order")
	}
	// Earlier semi-warm (lower percentile) must not keep MORE memory and
	// must hit at least as many semi-warm starts.
	if lo.AvgMemMB > hi.AvgMemMB*1.02 {
		t.Errorf("P50 memory %.0f should be <= P99 memory %.0f", lo.AvgMemMB, hi.AvgMemMB)
	}
	if lo.SemiWarmStarts < hi.SemiWarmStarts {
		t.Errorf("P50 semi-warm starts %d < P99 %d", lo.SemiWarmStarts, hi.SemiWarmStarts)
	}
	// The paper's choice: at P99, the P95 latency stays near the warm time.
	if hi.P95 > 0.2 {
		t.Errorf("P99 timing still hurts P95: %.3f", hi.P95)
	}
}
