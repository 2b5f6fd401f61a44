package rmem

import (
	"errors"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
)

// planWith builds a hand-crafted plan from windows, so tests control exactly
// when the pool is unhealthy.
func planWith(ws ...faultinject.Window) *faultinject.Plan {
	return faultinject.FromWindows(ws)
}

func sec(s int) simtime.Time { return simtime.Time(s) * simtime.Time(time.Second) }

func onePageFault() ClassCounts {
	var c ClassCounts
	c[memnode.ClassRuntime] = 1
	return c
}

// TestTypedFaultErrors is the table test over the fault-path error taxonomy:
// every probe-visible state maps to exactly one typed error.
func TestTypedFaultErrors(t *testing.T) {
	flap := faultinject.Window{Kind: faultinject.LinkFlap, Start: sec(10), End: sec(20)}
	crash := faultinject.Window{Kind: faultinject.PoolCrash, Start: sec(30), End: sec(40)}

	cases := []struct {
		name string
		pool *Pool
		at   simtime.Time
		want error
	}{
		{"healthy gap", NewPool(Config{Faults: planWith(flap, crash)}), sec(25), nil},
		{"link down", NewPool(Config{Faults: planWith(flap, crash)}), sec(15), ErrLinkDown},
		{"pool down", NewPool(Config{Faults: planWith(flap, crash)}), sec(35), ErrPoolDown},
		{"no plan", NewPool(Config{}), sec(15), nil},
		{"window end exclusive", NewPool(Config{Faults: planWith(flap)}), sec(20), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := pushBytes(tc.pool, tc.at, 4096)
			if !errors.Is(err, tc.want) {
				t.Fatalf("offload at %v: err = %v, want %v", tc.at, err, tc.want)
			}
			var counts ClassCounts
			counts[memnode.ClassRuntime] = 1
			_, ferr := tc.pool.FetchRetry(tc.at, "o", "f", counts)
			if tc.want == nil && ferr != nil {
				t.Fatalf("FetchRetry on healthy path errored: %v", ferr)
			}
			if tc.want != nil {
				if !errors.Is(ferr, ErrFetchTimeout) || !errors.Is(ferr, tc.want) {
					t.Fatalf("FetchRetry err = %v, want ErrFetchTimeout wrapping %v", ferr, tc.want)
				}
			}
		})
	}
}

// TestFullPoolStaysErrPoolFull pins that capacity exhaustion keeps its own
// typed error and is never confused with fault-injection outages.
func TestFullPoolStaysErrPoolFull(t *testing.T) {
	p := NewPool(Config{Capacity: 4096, Faults: planWith(
		faultinject.Window{Kind: faultinject.LinkFlap, Start: sec(100), End: sec(200)},
	)})
	if _, err := pushBytes(p, 0, 4096); err != nil {
		t.Fatal(err)
	}
	_, err := pushBytes(p, 0, 4096)
	if !errors.Is(err, ErrPoolFull) || errors.Is(err, ErrLinkDown) {
		t.Fatalf("full-pool err = %v, want pure ErrPoolFull", err)
	}
}

// TestFetchRetrySucceedsAfterFlap: a fetch issued mid-flap retries with
// exponential backoff and lands once the window closes, charging the waited
// backoff to the returned stall.
func TestFetchRetrySucceedsAfterFlap(t *testing.T) {
	// Flap covers [1s, 1s+50ms); first fetch attempt at 1s.
	p := NewPool(Config{
		Faults: planWith(faultinject.Window{
			Kind: faultinject.LinkFlap, Start: sec(1), End: sec(1) + simtime.Time(50*time.Millisecond),
		}),
	})
	if _, err := pushBytes(p, 0, 4096); err != nil {
		t.Fatal(err)
	}
	stall, err := p.FetchRetry(sec(1), "o", "f", onePageFault())
	if err != nil {
		t.Fatalf("FetchRetry: %v", err)
	}
	// Backoff probes at +20ms (still down), +60ms (up): two retries, 60ms.
	if stall.Retries != 2 {
		t.Errorf("Retries = %d, want 2", stall.Retries)
	}
	if stall.Backoff != 60*time.Millisecond {
		t.Errorf("Backoff = %v, want 60ms", stall.Backoff)
	}
	if stall.Total < stall.Backoff {
		t.Errorf("Total %v < Backoff %v: waited time not charged", stall.Total, stall.Backoff)
	}
	if p.Used() != 0 {
		t.Errorf("fetch did not drain pool: used = %d", p.Used())
	}
}

// TestFetchRetryTimesOutAndLeavesLedger: when the outage outlasts the
// backoff schedule the fetch fails typed, the wrapped cause names the
// outage kind, and the pool ledger is untouched — the caller still owns the
// pages for fallback or re-init. The schedule probes at +0, 20, 60, 140 and
// 300 ms; the next wait (320 ms) would pass the 500 ms fetch timeout, so an
// outage over by +300 ms is the longest one a fetch rides out.
func TestFetchRetryTimesOutAndLeavesLedger(t *testing.T) {
	const last = 300 * time.Millisecond
	cases := []struct {
		name    string
		kind    faultinject.Kind
		outage  time.Duration
		wantErr error
		retries int
	}{
		{"crash over at the last probe", faultinject.PoolCrash, last, nil, 4},
		{"crash past the last probe", faultinject.PoolCrash, last + 1, ErrPoolDown, 5},
		{"flap past the last probe", faultinject.LinkFlap, last + 1, ErrLinkDown, 5},
		{"crash for an hour", faultinject.PoolCrash, time.Hour, ErrPoolDown, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(Config{Faults: planWith(faultinject.Window{
				Kind: tc.kind, Start: sec(1), End: sec(1) + simtime.Time(tc.outage),
			})})
			if _, err := pushBytes(p, 0, 4096); err != nil {
				t.Fatal(err)
			}
			stall, err := p.FetchRetry(sec(1), "o", "f", onePageFault())
			if stall.Retries != tc.retries || stall.Backoff != last {
				t.Errorf("Retries, Backoff = %d, %v; want %d, %v", stall.Retries, stall.Backoff, tc.retries, last)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("FetchRetry: %v", err)
				}
				if p.Used() != 0 {
					t.Errorf("fetch did not drain pool: used = %d", p.Used())
				}
				return
			}
			if !errors.Is(err, ErrFetchTimeout) || !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want ErrFetchTimeout wrapping %v", err, tc.wantErr)
			}
			if p.Used() != 4096 {
				t.Errorf("failed fetch mutated ledger: used = %d, want 4096", p.Used())
			}
		})
	}
}

// TestAcceptableBytesZeroDuringOutageAndStorm: degraded mode pauses offload
// admission entirely — during link flaps, pool crashes and tier-full storms
// AcceptableBytes clamps to zero, and recovers after the window.
func TestAcceptableBytesZeroDuringOutageAndStorm(t *testing.T) {
	nodeCfg := memnode.Config{DRAMBytes: 1 << 30}
	p := NewPool(Config{
		Node: &nodeCfg,
		Faults: planWith(
			faultinject.Window{Kind: faultinject.LinkFlap, Start: sec(10), End: sec(20)},
			faultinject.Window{Kind: faultinject.TierStorm, Start: sec(30), End: sec(40)},
		),
	})
	if got := p.AcceptableBytes(sec(5)); got <= 0 {
		t.Errorf("AcceptableBytes before faults = %d, want > 0", got)
	}
	if got := p.AcceptableBytes(sec(15)); got != 0 {
		t.Errorf("AcceptableBytes during flap = %d, want 0", got)
	}
	if got := p.AcceptableBytes(sec(35)); got != 0 {
		t.Errorf("AcceptableBytes during tier storm = %d, want 0", got)
	}
	if got := p.AcceptableBytes(sec(45)); got <= 0 {
		t.Errorf("AcceptableBytes after recovery = %d, want > 0", got)
	}
}

// TestGovernorZeroWhileUnhealthy: the bandwidth governor clamps the offload
// scale to zero during an outage so policies stop generating offload work.
func TestGovernorZeroWhileUnhealthy(t *testing.T) {
	p := NewPool(Config{Faults: planWith(
		faultinject.Window{Kind: faultinject.PoolCrash, Start: sec(10), End: sec(20)},
	)})
	g := NewGovernor(p, 0.5)
	if s := g.Scale(sec(5)); s != 1 {
		t.Errorf("Scale before crash = %v, want 1", s)
	}
	if s := g.Scale(sec(15)); s != 0 {
		t.Errorf("Scale during crash = %v, want 0", s)
	}
	if s := g.Scale(sec(25)); s != 1 {
		t.Errorf("Scale after recovery = %v, want 1", s)
	}
}

// TestDegradedTransitionsCount: edge-triggered degraded bookkeeping counts
// each enter/exit once, not per probe.
func TestDegradedTransitionsCount(t *testing.T) {
	p := NewPool(Config{Faults: planWith(
		faultinject.Window{Kind: faultinject.LinkFlap, Start: sec(10), End: sec(20)},
	)})
	for _, at := range []int{5, 6, 11, 12, 15, 21, 22} {
		p.probeHealth(sec(at))
	}
	if !p.Healthy(sec(25)) {
		t.Error("pool unhealthy after window closed")
	}
	// Transitions: healthy→degraded at 11, degraded→healthy at 21.
	if p.Healthy(sec(15)) || !p.Healthy(sec(5)) {
		t.Error("Healthy() disagrees with plan windows")
	}
}

// TestBandwidthFactorSlowsTransfers: a link-degrade window stretches
// transfer time by its factor.
func TestBandwidthFactorSlowsTransfers(t *testing.T) {
	degrade := faultinject.Window{
		Kind: faultinject.LinkDegrade, Start: sec(100), End: sec(200), Factor: 4,
	}
	healthyPool := NewPool(Config{Bandwidth: 1 << 20})
	degradedPool := NewPool(Config{Bandwidth: 1 << 20, Faults: planWith(degrade)})

	dHealthy, err := pushBytes(healthyPool, sec(50), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dSame, err := pushBytes(degradedPool, sec(50), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if dSame != dHealthy {
		t.Errorf("outside window transfer = %v, want %v (factor must not leak)", dSame, dHealthy)
	}
	dSlow, err := pushBytes(degradedPool, sec(150), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	slow := time.Duration(dSlow - sec(150))
	if slow < 3900*time.Millisecond || slow > 4100*time.Millisecond {
		t.Errorf("degraded 1MB @ 1MB/s / factor 4 took %v, want ~4s", slow)
	}
}
