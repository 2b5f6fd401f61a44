package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestAttribPressureMonotonic checks the structure of the shared ext-attrib
// rows: delays descend (pressure rises) and every step's attribution
// reconciles. The monotone memory and stall-share shape is claims
// attrib-memory, attrib-stall and attrib-stall-p99.
func TestAttribPressureMonotonic(t *testing.T) {
	rows := sharedRows[AttribRow](t, "ext-attrib")
	if len(rows) < 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SemiWarmDelay >= rows[i-1].SemiWarmDelay {
			t.Fatalf("delays must descend (pressure rises): %v then %v",
				rows[i-1].SemiWarmDelay, rows[i].SemiWarmDelay)
		}
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
