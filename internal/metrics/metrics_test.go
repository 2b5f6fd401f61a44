package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Count() != 0 || s.Mean() != 0 || s.P95() != 0 || s.Percentile(100) != 0 || s.Percentile(0) != 0 {
		t.Fatal("empty sampler should report zeros")
	}
	if s.CDF() != nil {
		t.Fatal("empty sampler CDF should be nil")
	}
}

func TestSamplerMeanAndExtremes(t *testing.T) {
	var s Sampler
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 4 {
		t.Errorf("P0/P100 = %v/%v", s.Percentile(0), s.Percentile(100))
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sampler
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50.5, 95: 95.05, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	var s Sampler
	s.Add(7)
	for _, p := range []float64{0, 50, 95, 100} {
		if s.Percentile(p) != 7 {
			t.Errorf("P%v of single value = %v", p, s.Percentile(p))
		}
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	var s Sampler
	s.Add(1)
	for _, p := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			s.Percentile(p)
		}()
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sampler
	s.Add(10)
	_ = s.P50()
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Errorf("Min after late Add = %v, want 1", got)
	}
}

func TestAddDuration(t *testing.T) {
	var s Sampler
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Errorf("AddDuration stored %v, want 1.5", s.Mean())
	}
}

func TestCDFMonotone(t *testing.T) {
	var s Sampler
	for _, v := range []float64{3, 1, 2, 2, 5} {
		s.Add(v)
	}
	pts := s.CDF()
	if len(pts) != 4 {
		t.Fatalf("CDF has %d points, want 4 distinct values", len(pts))
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Errorf("final CDF fraction = %v, want 1", pts[len(pts)-1].Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Errorf("CDF not strictly increasing at %d: %+v", i, pts)
		}
	}
	// Duplicate value 2 collapses to cumulative 3/5.
	if pts[1].Value != 2 || pts[1].Fraction != 0.6 {
		t.Errorf("dup point = %+v, want {2, 0.6}", pts[1])
	}
}

// Property: percentiles are order statistics — P0 = min, P100 = max, and
// monotone in p — and merging two samplers is feeding one sampler both
// streams.
func TestPercentileProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s, merged, rest, empty Sampler
		n := 1 + rng.Intn(200)
		cut := rng.Intn(n + 1)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			s.Add(vals[i])
			if i < cut {
				merged.Add(vals[i])
			} else {
				rest.Add(vals[i])
			}
		}
		sort.Float64s(vals)
		if s.Percentile(0) != vals[0] || s.Percentile(100) != vals[n-1] {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		// The first part is queried, so sorted, before the merge, which
		// must re-sort; merging an empty sampler changes nothing. Both
		// samplers answer percentiles before Mean, so both are sorted and
		// Mean sums the same values in the same order.
		merged.P50()
		merged.Merge(&rest)
		merged.Merge(&empty)
		if merged.P50() != s.P50() || merged.P95() != s.P95() || merged.P99() != s.P99() {
			return false
		}
		return merged.Count() == n && merged.Mean() == s.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	tw := NewTimeWeighted(0, 100)
	tw.Set(10*time.Second, 200) // 100 for 10s
	tw.Set(20*time.Second, 0)   // 200 for 10s
	// Average over [0, 20s]: (100*10 + 200*10) / 20 = 150.
	if got := tw.Average(20 * time.Second); math.Abs(got-150) > 1e-9 {
		t.Errorf("Average = %v, want 150", got)
	}
	// Continue to 40s at value 0: (3000 + 0) / 40 = 75.
	if got := tw.Average(40 * time.Second); math.Abs(got-75) > 1e-9 {
		t.Errorf("Average(40s) = %v, want 75", got)
	}
}

func TestTimeWeightedPeakAndCurrent(t *testing.T) {
	tw := NewTimeWeighted(0, 5)
	tw.Add(time.Second, 10)
	tw.Add(2*time.Second, -12)
	if tw.Current() != 3 {
		t.Errorf("Current = %v, want 3", tw.Current())
	}
	if tw.Peak() != 15 {
		t.Errorf("Peak = %v, want 15", tw.Peak())
	}
}

func TestTimeWeightedZeroElapsed(t *testing.T) {
	tw := NewTimeWeighted(time.Second, 42)
	if tw.Average(time.Second) != 42 {
		t.Errorf("zero-elapsed average = %v, want current", tw.Average(time.Second))
	}
}

func TestTimeWeightedOutOfOrderPanics(t *testing.T) {
	tw := NewTimeWeighted(0, 0)
	tw.Set(10*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Set did not panic")
		}
	}()
	tw.Set(5*time.Second, 2)
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(time.Second, 1)
	s.Append(2*time.Second, 4)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Times[1] != 2*time.Second || s.Values[1] != 4 {
		t.Fatalf("sample 1 = (%v, %v)", s.Times[1], s.Values[1])
	}
}

func TestUnitConversions(t *testing.T) {
	if MB(2_000_000) != 2 {
		t.Errorf("MB = %v", MB(2_000_000))
	}
}

func TestSamplerEmptyAccessors(t *testing.T) {
	var s Sampler
	if s.Count() != 0 {
		t.Error("fresh sampler should be empty")
	}

	// A genuine zero observation is distinguishable from "no observations".
	s.Add(0)
	if s.Count() != 1 {
		t.Error("sampler with one zero observation reported empty")
	}
}
