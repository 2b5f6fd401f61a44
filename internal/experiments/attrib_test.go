package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestAttribPressureMonotonic asserts the ext-attrib acceptance shape:
// shrinking the semi-warm drain delay must monotonically lower average
// local memory and monotonically raise the remote-stall share of latency.
func TestAttribPressureMonotonic(t *testing.T) {
	rows := AttribPressure(AttribPressureOptions{Duration: 12 * time.Minute, Seed: 5})
	if len(rows) < 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SemiWarmDelay >= rows[i-1].SemiWarmDelay {
			t.Fatalf("delays must descend (pressure rises): %v then %v",
				rows[i-1].SemiWarmDelay, rows[i].SemiWarmDelay)
		}
		if rows[i].AvgLocalMB > rows[i-1].AvgLocalMB+1e-9 {
			t.Fatalf("avg local memory must fall with pressure: %.2f MB at %v, %.2f MB at %v",
				rows[i-1].AvgLocalMB, rows[i-1].SemiWarmDelay,
				rows[i].AvgLocalMB, rows[i].SemiWarmDelay)
		}
		if rows[i].MeanStallShare < rows[i-1].MeanStallShare-1e-9 {
			t.Fatalf("remote-stall share must rise with pressure: %.4f at %v, %.4f at %v",
				rows[i-1].MeanStallShare, rows[i-1].SemiWarmDelay,
				rows[i].MeanStallShare, rows[i].SemiWarmDelay)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.MeanStallShare <= first.MeanStallShare {
		t.Fatalf("sweep must show real damage growth: share %.4f -> %.4f",
			first.MeanStallShare, last.MeanStallShare)
	}
	if last.StallShareP99 < first.StallShareP99 {
		t.Fatalf("P99 stall share must not fall with pressure: %.4f -> %.4f",
			first.StallShareP99, last.StallShareP99)
	}
	// Every step's attribution must reconcile: phase columns sum to the
	// order-statistic total.
	for _, r := range rows {
		for _, bd := range r.Analysis.Overall.Breakdowns {
			var sum time.Duration
			for _, d := range bd.Phase {
				sum += d
			}
			if sum != bd.Total {
				t.Fatalf("delay %v q=%v: phase sum %v != total %v",
					r.SemiWarmDelay, bd.Q, sum, bd.Total)
			}
		}
	}
	var buf bytes.Buffer
	printRows(&buf, "", rows)
	if buf.Len() == 0 {
		t.Fatal("printer produced nothing")
	}
}
