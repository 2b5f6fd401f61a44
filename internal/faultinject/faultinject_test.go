package faultinject

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan must be empty")
	}
	if nilPlan.LinkDown(0) || nilPlan.PoolDown(0) || nilPlan.TierStorm(0) || nilPlan.Unhealthy(0) {
		t.Fatal("nil plan reported a fault")
	}
	if f := nilPlan.LatencyFactor(0); f != 1 {
		t.Fatalf("nil plan latency factor %v, want 1", f)
	}
	if f := nilPlan.BandwidthFactor(0); f != 1 {
		t.Fatalf("nil plan bandwidth factor %v, want 1", f)
	}
	for _, cfg := range []Config{
		{},
		{Horizon: time.Hour},                 // intensity 0
		{Intensity: 1},                       // horizon 0
		{Horizon: -time.Hour, Intensity: 1},  // negative horizon
		{Horizon: time.Hour, Intensity: -.5}, // negative intensity
	} {
		if p := New(cfg); !p.Empty() {
			t.Fatalf("New(%+v) not empty: %d windows", cfg, len(p.Windows()))
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Horizon: time.Hour, Intensity: 0.7, Seed: 42}
	a, b := New(cfg), New(cfg)
	if !reflect.DeepEqual(a.Windows(), b.Windows()) {
		t.Fatal("same config produced different plans")
	}
	if New(Config{Horizon: time.Hour, Intensity: 0.7, Seed: 43}).Empty() {
		t.Fatal("expected a non-empty plan at intensity 0.7 over an hour")
	}
}

// TestIntensityMonotone checks the superset property the resilience sweep
// relies on: the schedule (window start times) is intensity-invariant, and
// every lower-intensity window is contained in its higher-intensity
// counterpart with a no-stronger severity.
func TestIntensityMonotone(t *testing.T) {
	lo := New(Config{Horizon: 2 * time.Hour, Intensity: 0.3, Seed: 7})
	hi := New(Config{Horizon: 2 * time.Hour, Intensity: 0.9, Seed: 7})
	loWs, hiWs := lo.Windows(), hi.Windows()
	if len(loWs) == 0 || len(hiWs) == 0 {
		t.Fatal("expected windows at both intensities")
	}
	// Merging can collapse adjacent high-intensity windows, so match each
	// low window to a containing high window instead of zipping by index.
	for _, lw := range loWs {
		found := false
		for _, hw := range hiWs {
			if hw.Kind == lw.Kind && hw.Start <= lw.Start && hw.End >= lw.End {
				if lw.Factor > hw.Factor+1e-9 {
					t.Fatalf("low-intensity window %+v stronger than high %+v", lw, hw)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("low-intensity window %+v not covered at high intensity", lw)
		}
	}
	if lo.UnhealthyFraction(2*time.Hour) > hi.UnhealthyFraction(2*time.Hour) {
		t.Fatal("unhealthy fraction decreased with intensity")
	}
}

func TestQueriesAgainstHandcraftedWindows(t *testing.T) {
	sec := func(s int) simtime.Time { return simtime.Time(s) * simtime.Time(time.Second) }
	p := FromWindows([]Window{
		{Kind: LinkFlap, Start: sec(10), End: sec(20)},
		{Kind: PoolCrash, Start: sec(30), End: sec(40)},
		{Kind: TierStorm, Start: sec(50), End: sec(60)},
		{Kind: LinkDegrade, Start: sec(70), End: sec(80), Factor: 4},
		{Kind: LatencySpike, Start: sec(90), End: sec(100), Factor: 5},
		{Kind: LinkFlap, Start: sec(15), End: sec(25)}, // overlaps → merged
		{Kind: LinkFlap, Start: sec(5), End: sec(5)},   // empty → dropped
	})
	if p.Empty() {
		t.Fatal("plan unexpectedly empty")
	}
	cases := []struct {
		at        int
		linkDown  bool
		poolDown  bool
		storm     bool
		unhealthy bool
		bwf, latf float64
	}{
		{at: 0, bwf: 1, latf: 1},
		{at: 10, linkDown: true, unhealthy: true, bwf: 1, latf: 1},
		{at: 24, linkDown: true, unhealthy: true, bwf: 1, latf: 1}, // merged tail
		{at: 25, bwf: 1, latf: 1},                                  // End exclusive
		{at: 35, poolDown: true, unhealthy: true, bwf: 1, latf: 1},
		{at: 55, storm: true, bwf: 1, latf: 1},
		{at: 75, bwf: 0.25, latf: 1},
		{at: 95, bwf: 1, latf: 5},
		{at: 100, bwf: 1, latf: 1},
	}
	for _, c := range cases {
		now := sec(c.at)
		if got := p.LinkDown(now); got != c.linkDown {
			t.Errorf("t=%ds LinkDown=%v want %v", c.at, got, c.linkDown)
		}
		if got := p.PoolDown(now); got != c.poolDown {
			t.Errorf("t=%ds PoolDown=%v want %v", c.at, got, c.poolDown)
		}
		if got := p.TierStorm(now); got != c.storm {
			t.Errorf("t=%ds TierStorm=%v want %v", c.at, got, c.storm)
		}
		if got := p.Unhealthy(now); got != c.unhealthy {
			t.Errorf("t=%ds Unhealthy=%v want %v", c.at, got, c.unhealthy)
		}
		if got := p.BandwidthFactor(now); got != c.bwf {
			t.Errorf("t=%ds BandwidthFactor=%v want %v", c.at, got, c.bwf)
		}
		if got := p.LatencyFactor(now); got != c.latf {
			t.Errorf("t=%ds LatencyFactor=%v want %v", c.at, got, c.latf)
		}
	}
	// Flap [10,25) + crash [30,40) = 25s of a 100s horizon.
	if got := p.UnhealthyFraction(100 * time.Second); got != 0.25 {
		t.Fatalf("UnhealthyFraction=%v want 0.25", got)
	}
}

func TestNextTransition(t *testing.T) {
	sec := func(s int) simtime.Time { return simtime.Time(s) * simtime.Time(time.Second) }
	p := FromWindows([]Window{
		{Kind: LinkFlap, Start: sec(10), End: sec(20)},
		{Kind: PoolCrash, Start: sec(15), End: sec(40)},
	})
	cases := []struct {
		at, want int
		ok       bool
	}{
		{at: 0, want: 10, ok: true},
		{at: 10, want: 15, ok: true},
		{at: 15, want: 20, ok: true},
		{at: 20, want: 40, ok: true},
		{at: 40, ok: false},
	}
	for _, c := range cases {
		got, ok := p.NextTransition(sec(c.at))
		if ok != c.ok || (ok && got != sec(c.want)) {
			t.Errorf("NextTransition(%ds) = (%v,%v) want (%ds,%v)", c.at, got, ok, c.want, c.ok)
		}
	}
}

// checkPlanInvariants asserts structural properties every plan must satisfy.
func checkPlanInvariants(t *testing.T, p *Plan, horizon time.Duration) {
	t.Helper()
	for k := Kind(0); k < numKinds; k++ {
		ws := p.byKind[k]
		for i, w := range ws {
			if w.End <= w.Start {
				t.Fatalf("%v window %d inverted: %+v", k, i, w)
			}
			if w.Start < 0 || (horizon > 0 && w.Start >= simtime.Time(horizon)) {
				t.Fatalf("%v window %d starts outside horizon: %+v", k, i, w)
			}
			if i > 0 && w.Start <= ws[i-1].End {
				t.Fatalf("%v windows %d,%d overlap after merge: %+v %+v", k, i-1, i, ws[i-1], w)
			}
			switch k {
			case LinkDegrade, LatencySpike:
				if w.Factor < 1 {
					t.Fatalf("%v window %d factor %v < 1", k, i, w.Factor)
				}
			default:
				if w.Factor != 0 {
					t.Fatalf("%v window %d has factor %v", k, i, w.Factor)
				}
			}
			// Queries must agree with the window list.
			mid := w.Start + (w.End-w.Start)/2
			switch k {
			case LinkFlap:
				if !p.LinkDown(mid) {
					t.Fatalf("LinkDown false inside %+v", w)
				}
			case PoolCrash:
				if !p.PoolDown(mid) {
					t.Fatalf("PoolDown false inside %+v", w)
				}
			case TierStorm:
				if !p.TierStorm(mid) {
					t.Fatalf("TierStorm false inside %+v", w)
				}
			case LinkDegrade:
				if p.BandwidthFactor(mid) >= 1 {
					t.Fatalf("BandwidthFactor >= 1 inside %+v", w)
				}
			case LatencySpike:
				if p.LatencyFactor(mid) <= 1 {
					t.Fatalf("LatencyFactor <= 1 inside %+v", w)
				}
			}
		}
	}
	if f := p.UnhealthyFraction(horizon); f < 0 || f > 1 {
		t.Fatalf("UnhealthyFraction %v outside [0,1]", f)
	}
}

// FuzzPlan generates plans from arbitrary configs and checks structural
// invariants plus determinism and the intensity-superset property.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), int64(3600), 0.5)
	f.Add(int64(42), int64(600), 1.0)
	f.Add(int64(-9), int64(120), 0.01)
	f.Fuzz(func(t *testing.T, seed, horizonSec int64, intensity float64) {
		if horizonSec < 0 {
			horizonSec = -horizonSec
		}
		horizonSec %= 48 * 3600 // cap generation work
		if intensity != intensity || intensity > 1e6 || intensity < -1e6 {
			intensity = 1 // NaN / absurd magnitudes: clamp to a valid probe
		}
		horizon := time.Duration(horizonSec) * time.Second
		cfg := Config{Horizon: horizon, Intensity: intensity, Seed: seed}
		p := New(cfg)
		checkPlanInvariants(t, p, horizon)
		if !reflect.DeepEqual(p.Windows(), New(cfg).Windows()) {
			t.Fatal("plan not deterministic")
		}
		if intensity > 0 && intensity <= 1 {
			half := New(Config{Horizon: horizon, Intensity: intensity / 2, Seed: seed})
			checkPlanInvariants(t, half, horizon)
			if half.UnhealthyFraction(horizon) > p.UnhealthyFraction(horizon)+1e-12 {
				t.Fatal("unhealthy fraction not monotone in intensity")
			}
		}
	})
}
