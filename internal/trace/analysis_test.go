package trace

import (
	"math"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// Analyze and its helpers read a generated function's arrival statistics:
// the tests below and the package examples check the generator with them.

// FunctionAnalysis summarizes one function's arrival dynamics — the
// characteristics §8.2/§8.4/§8.6 correlate savings against: load level,
// interval dispersion, and burstiness.
type FunctionAnalysis struct {
	// Invocations over the analyzed window.
	Invocations int
	// DailyRate is the normalized invocations/day.
	DailyRate float64
	// Class is the §8.4 load class.
	Class LoadClass
	// MeanGap and GapStddev describe inter-arrival gaps.
	MeanGap, GapStddev time.Duration
	// CV is the coefficient of variation of gaps (1 ≈ Poisson, > 1 bursty).
	CV float64
	// Burstiness is Goh & Barabási's index (CV−1)/(CV+1): −1 periodic,
	// 0 Poisson, → 1 extremely bursty.
	Burstiness float64
	// PeakToMean is the max over mean of per-minute arrival counts; sudden
	// surges (Table 1's ID-5) show up here.
	PeakToMean float64
}

// Analyze computes arrival statistics for one function over window d.
func Analyze(f *Function, d time.Duration) FunctionAnalysis {
	a := FunctionAnalysis{
		Invocations: len(f.Invocations),
		DailyRate:   f.DailyRate(d),
	}
	a.Class = Classify(a.DailyRate)
	iv := f.Intervals()
	a.MeanGap, a.GapStddev = iv.Mean, iv.Stddev
	if iv.Mean > 0 {
		a.CV = float64(iv.Stddev) / float64(iv.Mean)
		a.Burstiness = (a.CV - 1) / (a.CV + 1)
	}
	a.PeakToMean = peakToMean(f.Invocations, d, time.Minute)
	return a
}

// peakToMean buckets arrivals into fixed windows and returns max/mean of the
// non-empty timeline.
func peakToMean(inv []simtime.Time, d, bucket time.Duration) float64 {
	if len(inv) == 0 || d <= 0 || bucket <= 0 {
		return 0
	}
	n := int(d/bucket) + 1
	counts := make([]int, n)
	for _, at := range inv {
		idx := int(at / bucket)
		if idx >= 0 && idx < n {
			counts[idx]++
		}
	}
	peak, sum := 0, 0
	for _, c := range counts {
		sum += c
		if c > peak {
			peak = c
		}
	}
	mean := float64(sum) / float64(n)
	if mean == 0 {
		return 0
	}
	return float64(peak) / mean
}

func TestAnalyzePeriodicFunction(t *testing.T) {
	f := &Function{ID: "p", Invocations: secs(0, 10, 20, 30, 40)}
	a := Analyze(f, time.Minute)
	if a.Invocations != 5 {
		t.Fatalf("invocations = %d", a.Invocations)
	}
	if a.MeanGap != 10*time.Second || a.GapStddev != 0 {
		t.Fatalf("gaps = %v ± %v", a.MeanGap, a.GapStddev)
	}
	if a.CV != 0 {
		t.Fatalf("CV = %v, want 0 for periodic", a.CV)
	}
	// Perfectly periodic → burstiness -1.
	if a.Burstiness != -1 {
		t.Fatalf("burstiness = %v, want -1", a.Burstiness)
	}
}

func TestAnalyzeBurstyExceedsSmooth(t *testing.T) {
	smooth := GenerateFunction("s", 6*time.Hour, 30*time.Second, false, 3)
	bursty := GenerateFunction("b", 6*time.Hour, 30*time.Second, true, 3)
	as := Analyze(smooth, 6*time.Hour)
	ab := Analyze(bursty, 6*time.Hour)
	if ab.Burstiness <= as.Burstiness {
		t.Fatalf("bursty burstiness %v <= smooth %v", ab.Burstiness, as.Burstiness)
	}
	if ab.PeakToMean <= as.PeakToMean {
		t.Fatalf("bursty peak/mean %v <= smooth %v", ab.PeakToMean, as.PeakToMean)
	}
	// Poisson-ish arrivals sit near burstiness 0.
	if math.Abs(as.Burstiness) > 0.35 {
		t.Fatalf("smooth burstiness = %v, want near 0", as.Burstiness)
	}
}

func TestAnalyzeEmptyFunction(t *testing.T) {
	a := Analyze(&Function{ID: "e"}, time.Hour)
	if a.Invocations != 0 || a.CV != 0 || a.PeakToMean != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}

func TestPeakToMeanDegenerate(t *testing.T) {
	if got := peakToMean(nil, time.Hour, time.Minute); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := peakToMean(secs(1), 0, time.Minute); got != 0 {
		t.Fatalf("zero window = %v", got)
	}
}
