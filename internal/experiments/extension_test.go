package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPoolComparisonShape(t *testing.T) {
	rows := PoolComparison(PoolComparisonOptions{Duration: 8 * time.Minute, Seed: 31})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PoolRow{}
	for _, r := range rows {
		byName[r.Pool] = r
	}
	rdma, cxl, ssd := byName["rdma-56g"], byName["cxl"], byName["ssd"]
	// §9's prose, quantified: CXL must not be slower than RDMA at the same
	// offloading duty; the SSD's 1 MB/s write cap strangles offloading.
	if cxl.P99 > rdma.P99+1e-9 {
		t.Errorf("CXL P99 %.3f worse than RDMA %.3f", cxl.P99, rdma.P99)
	}
	// The SSD's durability-limited 1 MB/s writes cap offloading: it moves
	// less data, keeps more memory local, and pays slower faults at the tail.
	if ssd.OffloadedMB >= rdma.OffloadedMB {
		t.Errorf("SSD offloaded %.0f MB, want below RDMA's %.0f MB",
			ssd.OffloadedMB, rdma.OffloadedMB)
	}
	if ssd.AvgLocalMB <= rdma.AvgLocalMB {
		t.Errorf("SSD avg local %.0f MB should exceed RDMA's %.0f MB (less offload)",
			ssd.AvgLocalMB, rdma.AvgLocalMB)
	}
	if ssd.P99 < rdma.P99 {
		t.Errorf("SSD P99 %.3f should not beat RDMA's %.3f", ssd.P99, rdma.P99)
	}
}

func TestColdStartTimingShape(t *testing.T) {
	rows := ColdStartTiming(ColdStartTimingOptions{Duration: 10 * time.Minute, Seed: 33})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(cs string, corrected bool) ColdStartTimingRow {
		for _, r := range rows {
			if r.Case == cs && r.Corrected == corrected {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", cs, corrected)
		return ColdStartTimingRow{}
	}
	// The correction delays semi-warm, so it can only keep more memory
	// resident; in exchange the bursty P99 must not get worse.
	for _, cs := range []string{"common", "bursty"} {
		plain := get(cs, false)
		fixed := get(cs, true)
		if fixed.AvgMemMB < plain.AvgMemMB-1 {
			t.Errorf("%s: corrected timing reduced memory (%.0f < %.0f), impossible",
				cs, fixed.AvgMemMB, plain.AvgMemMB)
		}
		if fixed.P99 > plain.P99+1e-9 {
			t.Errorf("%s: corrected timing worsened P99 (%.3f > %.3f)",
				cs, fixed.P99, plain.P99)
		}
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
	rows := RackDensity(RackDensityOptions{
		Nodes:             2,
		NodeMemoryLimitMB: 1500,
		Functions:         6,
		Duration:          10 * time.Minute,
		Seed:              41,
	})
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
	// The density mechanism: FaaSMem evicts fewer keep-alive containers and
	// therefore cold-starts no more than the baseline.
	if fm.Evicted > base.Evicted {
		t.Errorf("FaaSMem evicted %d > baseline %d", fm.Evicted, base.Evicted)
	}
	if fm.ColdStartRatio > base.ColdStartRatio+1e-9 {
		t.Errorf("FaaSMem cold ratio %.3f > baseline %.3f", fm.ColdStartRatio, base.ColdStartRatio)
	}
	if fm.AvgLocalMB >= base.AvgLocalMB {
		t.Errorf("FaaSMem rack memory %.0f not below baseline %.0f", fm.AvgLocalMB, base.AvgLocalMB)
	}
}

func TestReadaheadShape(t *testing.T) {
	rows := Readahead(ReadaheadOptions{Duration: 8 * time.Minute, Seed: 51})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Window != 0 {
		t.Fatal("first row should be the no-readahead baseline")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FaultPages >= rows[0].FaultPages {
			t.Errorf("window %d: blocking faults %d not below baseline %d",
				rows[i].Window, rows[i].FaultPages, rows[0].FaultPages)
		}
	}
	// Wider windows mean fewer blocking faults.
	if rows[3].FaultPages >= rows[1].FaultPages {
		t.Errorf("readahead 32 (%d faults) should beat readahead 2 (%d)",
			rows[3].FaultPages, rows[1].FaultPages)
	}
	// Tail latency must not get worse with readahead.
	if rows[3].P99 > rows[0].P99+1e-9 {
		t.Errorf("readahead worsened P99: %.3f vs %.3f", rows[3].P99, rows[0].P99)
	}
}

func TestKeepAliveStrategiesShape(t *testing.T) {
	rows := KeepAliveStrategies(KeepAliveStrategiesOptions{Duration: 15 * time.Minute, Seed: 61})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(strategy string, pk PolicyKind) KeepAliveRow {
		for _, r := range rows {
			if r.Strategy == strategy && r.Policy == pk {
				return r
			}
		}
		t.Fatalf("missing %s/%s", strategy, pk)
		return KeepAliveRow{}
	}
	fixedBase := get("fixed-10m", Baseline)
	fixedFM := get("fixed-10m", FaaSMem)
	adaptBase := get("adaptive", Baseline)
	adaptFM := get("adaptive", FaaSMem)
	// Each technique helps on its own…
	if fixedFM.AvgLocalMB >= fixedBase.AvgLocalMB {
		t.Error("FaaSMem alone did not save memory")
	}
	if adaptBase.AvgLocalMB >= fixedBase.AvgLocalMB {
		t.Error("adaptive keep-alive alone did not save memory")
	}
	// …and the combination is at least as good as either alone (§10:
	// "combining the above works can gain more benefits"; when FaaSMem has
	// already drained the idle memory, adaptive keep-alive adds little, so
	// allow ties within 5%).
	if adaptFM.AvgLocalMB > fixedFM.AvgLocalMB*1.05 || adaptFM.AvgLocalMB > adaptBase.AvgLocalMB*1.05 {
		t.Errorf("combination (%.0f MB) should not lose to FaaSMem-only (%.0f) or adaptive-only (%.0f)",
			adaptFM.AvgLocalMB, fixedFM.AvgLocalMB, adaptBase.AvgLocalMB)
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

func TestFig16Correlations(t *testing.T) {
	// §8.6's correlation claims, tested with the Pearson statistic: density
	// is positively correlated with request load and negatively with the
	// standard deviation of request intervals.
	rows := Fig16(Fig16Options{Traces: 10, Duration: 10 * time.Minute, Seed: 77, Apps: []string{"web"}})
	if len(rows) < 6 {
		t.Skip("too few traces generated")
	}
	var load, sigma, density []float64
	for _, r := range rows {
		load = append(load, r.ReqPerMinute)
		sigma = append(sigma, r.IntervalSigmaSec)
		density = append(density, r.Density)
	}
	if got := pearson(load, density); got <= 0.2 {
		t.Errorf("corr(load, density) = %.2f, want clearly positive", got)
	}
	if got := pearson(sigma, density); got >= -0.2 {
		t.Errorf("corr(sigma, density) = %.2f, want clearly negative", got)
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
