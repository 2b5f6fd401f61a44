package trace

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/simtime"
)

func TestKeepAliveAllCold(t *testing.T) {
	// Gaps far exceed the timeout: every request cold-starts its own container.
	inv := secs(0, 1000, 2000)
	res := SimulateKeepAlive(inv, time.Second, 10*time.Second)
	if res.ColdStarts != 3 || res.WarmStarts != 0 {
		t.Fatalf("cold/warm = %d/%d, want 3/0", res.ColdStarts, res.WarmStarts)
	}
	if len(res.RequestsPerContainer) != 3 {
		t.Fatalf("containers = %d, want 3", len(res.RequestsPerContainer))
	}
	for _, n := range res.RequestsPerContainer {
		if n != 1 {
			t.Fatalf("requests per container = %d, want 1", n)
		}
	}
	if res.ColdStartRatio() != 1 {
		t.Fatalf("cold ratio = %v, want 1", res.ColdStartRatio())
	}
}

func TestKeepAliveAllWarm(t *testing.T) {
	inv := secs(0, 5, 10, 15)
	res := SimulateKeepAlive(inv, time.Second, time.Minute)
	if res.ColdStarts != 1 || res.WarmStarts != 3 {
		t.Fatalf("cold/warm = %d/%d, want 1/3", res.ColdStarts, res.WarmStarts)
	}
	if len(res.RequestsPerContainer) != 1 || res.RequestsPerContainer[0] != 4 {
		t.Fatalf("requests per container = %v, want [4]", res.RequestsPerContainer)
	}
	// Reused intervals: requests at 5,10,15 each found the container idle
	// since completion of the previous request (gap - exec = 4s).
	ri := &res.ReusedIntervals
	if ri.Len() != 3 || ri.Percentile(0) != 4*time.Second || ri.Percentile(100) != 4*time.Second {
		t.Fatalf("%d reused intervals spanning %v..%v, want 3 of 4s", ri.Len(), ri.Percentile(0), ri.Percentile(100))
	}
}

func TestKeepAliveAccounting(t *testing.T) {
	// Single request: active 1s, then idles out after 10s.
	res := SimulateKeepAlive(secs(0), time.Second, 10*time.Second)
	if res.ActiveTime != time.Second {
		t.Errorf("ActiveTime = %v, want 1s", res.ActiveTime)
	}
	if res.InactiveTime != 10*time.Second {
		t.Errorf("InactiveTime = %v, want 10s", res.InactiveTime)
	}
	if res.Lifetime() != 11*time.Second {
		t.Errorf("Lifetime = %v, want 11s", res.Lifetime())
	}
	want := 10.0 / 11.0
	if math.Abs(res.InactiveFraction()-want) > 1e-9 {
		t.Errorf("InactiveFraction = %v, want %v", res.InactiveFraction(), want)
	}
}

func TestKeepAliveConcurrentRequestsNeedMoreContainers(t *testing.T) {
	// Two requests at the same instant with 10s exec: needs two containers.
	inv := secs(0, 0.5)
	res := SimulateKeepAlive(inv, 10*time.Second, time.Minute)
	if res.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2 (overlapping execs)", res.ColdStarts)
	}
}

func TestKeepAliveExpiryBoundary(t *testing.T) {
	// Second request arrives exactly at timeout after idle start: still warm
	// (expiry is strict >).
	inv := secs(0, 11)
	res := SimulateKeepAlive(inv, time.Second, 10*time.Second)
	if res.WarmStarts != 1 {
		t.Fatalf("warm = %d, want 1 at exact boundary", res.WarmStarts)
	}
	// Just past the boundary: cold.
	inv2 := secs(0, 11.001)
	res2 := SimulateKeepAlive(inv2, time.Second, 10*time.Second)
	if res2.ColdStarts != 2 {
		t.Fatalf("cold = %d, want 2 past boundary", res2.ColdStarts)
	}
}

func TestKeepAliveLongerTimeoutFewerColds(t *testing.T) {
	f := GenerateFunction("f", 6*time.Hour, 2*time.Minute, false, 13)
	short := SimulateKeepAlive(f.Invocations, time.Second, 10*time.Second)
	long := SimulateKeepAlive(f.Invocations, time.Second, 10*time.Minute)
	if long.ColdStartRatio() >= short.ColdStartRatio() {
		t.Errorf("longer timeout should reduce cold ratio: %v vs %v",
			long.ColdStartRatio(), short.ColdStartRatio())
	}
	if long.InactiveFraction() <= short.InactiveFraction() {
		t.Errorf("longer timeout should increase inactive fraction: %v vs %v",
			long.InactiveFraction(), short.InactiveFraction())
	}
}

func TestKeepAliveEmpty(t *testing.T) {
	res := SimulateKeepAlive(nil, time.Second, time.Minute)
	if res.ColdStarts != 0 || res.Lifetime() != 0 || res.ColdStartRatio() != 0 || res.InactiveFraction() != 0 {
		t.Fatal("empty invocation list should produce zero result")
	}
}

func TestSimulateTraceKeepAliveMerges(t *testing.T) {
	tr := &Trace{Duration: time.Hour, Functions: []*Function{
		{ID: "a", Invocations: secs(0)},
		{ID: "b", Invocations: secs(0)},
	}}
	res := SimulateTraceKeepAlive(tr, time.Second, 10*time.Second)
	if res.ColdStarts != 2 {
		t.Fatalf("merged cold starts = %d, want 2", res.ColdStarts)
	}
	if len(res.RequestsPerContainer) != 2 {
		t.Fatalf("merged containers = %d", len(res.RequestsPerContainer))
	}
}

// TestFig1Shape checks the headline trace analytic: with a 10-minute
// keep-alive the inactive fraction is very high (the paper reports 89.2%),
// and with 1 minute it is still above 50% (paper: 70.1%).
func TestFig1Shape(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 100, Duration: 12 * time.Hour}, 21)
	r10m := SimulateTraceKeepAlive(tr, 500*time.Millisecond, 10*time.Minute)
	r1m := SimulateTraceKeepAlive(tr, 500*time.Millisecond, time.Minute)
	if r10m.InactiveFraction() < 0.75 {
		t.Errorf("10m inactive fraction = %v, want > 0.75", r10m.InactiveFraction())
	}
	if r1m.InactiveFraction() < 0.5 {
		t.Errorf("1m inactive fraction = %v, want > 0.5", r1m.InactiveFraction())
	}
	if r10m.InactiveFraction() <= r1m.InactiveFraction() {
		t.Error("longer keep-alive must increase inactive fraction")
	}
}

// TestFig5Shape: a majority of containers handle only a few requests.
func TestFig5Shape(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 200, Duration: 12 * time.Hour}, 22)
	res := SimulateTraceKeepAlive(tr, 500*time.Millisecond, 10*time.Minute)
	if len(res.RequestsPerContainer) == 0 {
		t.Fatal("no containers simulated")
	}
	atMost2 := 0
	for _, n := range res.RequestsPerContainer {
		if n <= 2 {
			atMost2++
		}
	}
	frac := float64(atMost2) / float64(len(res.RequestsPerContainer))
	// The paper reports ~60%; accept a generous band for the synthetic trace.
	if frac < 0.3 {
		t.Errorf("containers with ≤2 requests = %.0f%%, want a substantial share", frac*100)
	}
}

// TestKeepAliveScalars: the scalars-only mode returns the same counters and
// times as the full simulation, with no distribution slices.
func TestKeepAliveScalars(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 40, Duration: 2 * time.Hour}, 23)
	for _, f := range tr.Functions {
		full := SimulateKeepAlive(f.Invocations, 500*time.Millisecond, 5*time.Minute)
		sc := SimulateKeepAliveScalars(f.Invocations, 500*time.Millisecond, 5*time.Minute)
		if sc.ColdStarts != full.ColdStarts || sc.WarmStarts != full.WarmStarts ||
			sc.ActiveTime != full.ActiveTime || sc.InactiveTime != full.InactiveTime {
			t.Fatalf("%s: scalars diverge: %+v vs %+v", f.ID, sc, full)
		}
		if sc.RequestsPerContainer != nil || sc.ReusedIntervals.Len() != 0 {
			t.Fatalf("%s: scalars mode filled distribution slices", f.ID)
		}
	}
}

// TestKeepAliveDifferential replays random sorted timelines (with deliberate
// duplicate timestamps, which exercise the idle-tie handling) through the
// O(n) deque implementation and the O(n·pool) reference, asserting identical
// aggregates, the reference's last 512 reuse intervals in order, and a
// multiset-identical requests-per-container distribution (the retire
// *order* may legitimately differ). Half the timelines run long enough to
// reuse containers more than 512 times.
func TestKeepAliveDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		if seed%2 == 1 {
			n += 1000
		}
		inv := make([]simtime.Time, n)
		var at simtime.Time
		for i := range inv {
			if rng.Intn(4) != 0 { // 1-in-4 chance of a duplicate timestamp
				at += simtime.Time(rng.Intn(180)) * simtime.Time(time.Second)
			}
			inv[i] = at
		}
		exec := time.Duration(1+rng.Intn(2000)) * time.Millisecond
		timeout := time.Duration(1+rng.Intn(600)) * time.Second
		if seed%2 == 1 {
			timeout += 3 * time.Minute // longer than any gap: mostly reuses
		}

		got := SimulateKeepAlive(inv, exec, timeout)
		want := simulateKeepAliveReference(inv, exec, timeout)

		if got.ColdStarts != want.ColdStarts || got.WarmStarts != want.WarmStarts {
			t.Fatalf("seed %d: cold/warm = %d/%d, want %d/%d",
				seed, got.ColdStarts, got.WarmStarts, want.ColdStarts, want.WarmStarts)
		}
		if got.ActiveTime != want.ActiveTime || got.InactiveTime != want.InactiveTime {
			t.Fatalf("seed %d: active/inactive = %v/%v, want %v/%v",
				seed, got.ActiveTime, got.InactiveTime, want.ActiveTime, want.InactiveTime)
		}
		if seed%2 == 1 && len(want.reused) <= 512 {
			t.Fatalf("seed %d: %d reuses do not wrap the history", seed, len(want.reused))
		}
		// Recent keeps the last 512 of what it is pushed, in a ring: one
		// fed the reference's full list must equal the replay's.
		var wantRecent metrics.Recent
		for _, d := range want.reused {
			wantRecent.Push(d)
		}
		if !reflect.DeepEqual(got.ReusedIntervals, wantRecent) {
			t.Fatalf("seed %d: reuse intervals diverge from the reference's last 512", seed)
		}
		sortedInts := func(s []int) []int {
			c := append([]int(nil), s...)
			sort.Ints(c)
			return c
		}
		if !reflect.DeepEqual(sortedInts(got.RequestsPerContainer), sortedInts(want.RequestsPerContainer)) {
			t.Fatalf("seed %d: requests-per-container multisets diverge", seed)
		}
	}
}

// TestKeepAliveUnsortedFallback: an unsorted timeline replays as its sorted
// copy, and the caller's slice is left as it was.
func TestKeepAliveUnsortedFallback(t *testing.T) {
	inv := []simtime.Time{
		simtime.Time(30 * time.Second),
		simtime.Time(10 * time.Second),
		simtime.Time(20 * time.Second),
		simtime.Time(10 * time.Second),
		simtime.Time(200 * time.Second),
	}
	orig := append([]simtime.Time(nil), inv...)
	sorted := append([]simtime.Time(nil), inv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	got := SimulateKeepAlive(inv, time.Second, time.Minute)
	want := SimulateKeepAlive(sorted, time.Second, time.Minute)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted replay diverges from the sorted copy: %+v vs %+v", got, want)
	}
	if !reflect.DeepEqual(inv, orig) {
		t.Fatalf("SimulateKeepAlive reordered the caller's timeline: %v", inv)
	}
	scalars := SimulateKeepAliveScalars(inv, time.Second, time.Minute)
	if scalars.ColdStarts != want.ColdStarts || scalars.ActiveTime != want.ActiveTime || scalars.InactiveTime != want.InactiveTime {
		t.Fatalf("unsorted scalars diverge: %+v vs %+v", scalars, want)
	}
}

// referenceResult is the reference replay's outcome: a KeepAliveResult
// without reuse intervals, and every reuse interval in arrival order.
type referenceResult struct {
	KeepAliveResult
	reused []time.Duration
}

// simulateKeepAliveReference is the retired O(n·pool) pool-walk
// implementation, kept as the oracle for the differential tests. Its
// per-container bookkeeping defines the semantics SimulateKeepAlive must
// reproduce on a sorted timeline.
func simulateKeepAliveReference(invocations []simtime.Time, execTime, timeout time.Duration) referenceResult {
	var res referenceResult
	var pool []*kaContainer // containers, alive

	retire := func(c *kaContainer, at simtime.Time) {
		res.ActiveTime += c.active
		res.InactiveTime += (at - c.launched) - c.active
		res.RequestsPerContainer = append(res.RequestsPerContainer, c.requests)
	}

	for _, at := range invocations {
		// Expire idle containers whose keep-alive lapsed before this request.
		alive := pool[:0]
		for _, c := range pool {
			if c.busyUntil <= at && at-c.idleSince > timeout {
				retire(c, c.idleSince+timeout)
				continue
			}
			alive = append(alive, c)
		}
		pool = alive

		// Pick the idle container that has waited longest.
		var pick *kaContainer
		for _, c := range pool {
			if c.busyUntil <= at && (pick == nil || c.idleSince < pick.idleSince) {
				pick = c
			}
		}
		if pick != nil {
			res.WarmStarts++
			res.reused = append(res.reused, at-pick.idleSince)
		} else {
			res.ColdStarts++
			pick = &kaContainer{launched: at}
			pool = append(pool, pick)
		}
		pick.requests++
		pick.active += execTime
		pick.busyUntil = at + execTime
		pick.idleSince = pick.busyUntil
	}

	// Drain: every surviving container idles out after its timeout.
	for _, c := range pool {
		end := c.idleSince + timeout
		retire(c, end)
	}
	return res
}
