package experiments

import (
	"reflect"
	"testing"
	"time"
)

// quickDensity is a small sweep that still builds real dedup fan-in.
func quickDensity(seed int64) PoolDensityOptions {
	return PoolDensityOptions{
		DRAMMBs:  []int{192},
		Duration: 4 * time.Minute,
		Seed:     seed,
	}
}

func TestPoolDensityAmplification(t *testing.T) {
	if rows := sharedRows[PoolDensityRow](t, "ext-pool-density"); len(rows) != 2*3 {
		t.Fatalf("rows = %d, want 2 DRAM sizes x 3 modes", len(rows))
	}
}

func TestPoolDensityDeterministicAcrossWidths(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	want := PoolDensity(quickDensity(7))
	for _, w := range []int{2, 8} {
		SetWorkers(w)
		got := PoolDensity(quickDensity(7))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("rows differ at %d workers:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}
