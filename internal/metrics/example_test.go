package metrics_test

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/metrics"
)

// ExampleSampler demonstrates the percentile accessors the evaluation uses.
func ExampleSampler() {
	var s metrics.Sampler
	for i := 1; i <= 100; i++ {
		s.AddDuration(time.Duration(i) * time.Millisecond)
	}
	fmt.Printf("P50 %.4fs P95 %.4fs P99 %.4fs\n", s.P50(), s.P95(), s.P99())
	// Output:
	// P50 0.0505s P95 0.0950s P99 0.0990s
}

// ExampleTimeWeighted shows memory-usage averaging over virtual time: the
// value's duration matters, not the number of updates.
func ExampleTimeWeighted() {
	tw := metrics.NewTimeWeighted(0, 100)
	tw.Set(10*time.Second, 0) // 100 MB for 10 s, then 0 for 10 s
	fmt.Printf("avg over 20s: %.0f\n", tw.Average(20*time.Second))
	// Output:
	// avg over 20s: 50
}
