package faas

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// tinyProfile is a fast, small benchmark for platform tests.
func tinyProfile() *workload.Profile {
	return &workload.Profile{
		Name:            "tiny",
		Language:        workload.Python,
		CPUShare:        0.1,
		RuntimeBytes:    1 * workload.MB,
		RuntimeHotBytes: 256 * 1024,
		InitBytes:       512 * 1024,
		InitHotBytes:    256 * 1024,
		Pattern:         workload.FixedHot,
		ExecBytes:       256 * 1024,
		ExecTime:        100 * time.Millisecond,
		InitTime:        200 * time.Millisecond,
		LaunchTime:      300 * time.Millisecond,
		QuotaBytes:      8 * workload.MB,
	}
}

func newTestPlatform(pol policy.Policy) (*simtime.Engine, *Platform) {
	e := simtime.NewEngine()
	p := New(e, Config{KeepAliveTimeout: 10 * time.Second, Seed: 1}, pol)
	return e, p
}

func TestColdStartLatency(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.Run()
	if f.stats.Requests != 1 {
		t.Fatalf("requests = %d, want 1", f.stats.Requests)
	}
	if f.stats.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1", f.stats.ColdStarts)
	}
	// End-to-end = launch (300ms) + init (200ms) + exec (100ms).
	want := 0.6
	got := f.stats.Latency.Mean()
	if got < want-1e-9 || got > want+1e-6 {
		t.Fatalf("cold latency = %v, want %v", got, want)
	}
}

func TestWarmStartReusesContainer(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	e.Run()
	if f.stats.ColdStarts != 1 || f.stats.WarmStarts != 1 {
		t.Fatalf("cold/warm = %d/%d, want 1/1", f.stats.ColdStarts, f.stats.WarmStarts)
	}
	if p.ContainersCreated() != 1 {
		t.Fatalf("containers = %d, want 1", p.ContainersCreated())
	}
	// Warm latency = exec only.
	if got := f.stats.Latency.Percentile(0); got != 0.1 {
		t.Fatalf("warm latency = %v, want 0.1", got)
	}
	// Adaptive keep-alive is off, so no reuse interval is recorded.
	if n := f.reuse.Len(); n != 0 {
		t.Fatalf("recorded %d reuse intervals with adaptive keep-alive off", n)
	}

	// With it on, the reuse interval is the gap since idle: the first
	// request is done at 0.6s, the next arrives at 2s.
	e = simtime.NewEngine()
	p = New(e, Config{KeepAliveTimeout: 10 * time.Second, AdaptiveKeepAlive: true, Seed: 1}, policy.NoOffload{})
	f = p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	e.Run()
	if f.reuse.Len() != 1 || f.reuse.Percentile(0) != 1400*time.Millisecond {
		t.Fatalf("%d reuse intervals from %v, want one of 1.4s", f.reuse.Len(), f.reuse.Percentile(0))
	}
}

// TestAdaptiveKeepAlive holds keepAliveFor to its rule: the fixed timeout
// below 16 recorded reuses, then twice the P99 of the last 512 reuse
// intervals, clamped to [15 s, KeepAliveTimeout].
func TestAdaptiveKeepAlive(t *testing.T) {
	newFn := func() (*Platform, *Function) {
		p := New(simtime.NewEngine(), Config{KeepAliveTimeout: 10 * time.Minute, AdaptiveKeepAlive: true}, policy.NoOffload{})
		return p, p.Register("f", tinyProfile())
	}
	push := func(f *Function, n int, d time.Duration) {
		for range n {
			f.reuse.Push(d)
		}
	}

	p, f := newFn()
	push(f, 15, 20*time.Second)
	if got := p.keepAliveFor(f); got != 10*time.Minute {
		t.Fatalf("15 reuses: keep-alive %v, want the fixed 10m", got)
	}
	push(f, 1, 20*time.Second)
	if got := p.keepAliveFor(f); got != 40*time.Second {
		t.Fatalf("16 reuses of 20s: keep-alive %v, want 40s", got)
	}
	// The P99 of 100 reuses is rank 98: one outlier does not move it, two do.
	push(f, 83, 20*time.Second)
	push(f, 1, 100*time.Second)
	if got := p.keepAliveFor(f); got != 40*time.Second {
		t.Fatalf("one 100s outlier in 100: keep-alive %v, want 40s", got)
	}
	push(f, 1, 100*time.Second)
	if got := p.keepAliveFor(f); got != 200*time.Second {
		t.Fatalf("two 100s outliers in 101: keep-alive %v, want 200s", got)
	}

	p, f = newFn()
	push(f, 16, 5*time.Second)
	if got := p.keepAliveFor(f); got != 15*time.Second {
		t.Fatalf("reuses of 5s: keep-alive %v, want the 15s floor", got)
	}
	push(f, 16, 8*time.Minute)
	if got := p.keepAliveFor(f); got != 10*time.Minute {
		t.Fatalf("reuses of 8m: keep-alive %v, want the 10m ceiling", got)
	}

	// Only the last 512 reuses count: 88 long ones followed by 512 short
	// ones leave a P99 of 30s.
	p, f = newFn()
	push(f, 88, 4*time.Minute)
	push(f, 512, 30*time.Second)
	if n := f.reuse.Len(); n != 512 {
		t.Fatalf("history holds %d reuses, want 512", n)
	}
	if got := p.keepAliveFor(f); got != time.Minute {
		t.Fatalf("after 600 reuses: keep-alive %v, want 1m from the last 512", got)
	}

	// With the flag off the fixed timeout applies, whatever the history.
	p.cfg.AdaptiveKeepAlive = false
	if got := p.keepAliveFor(f); got != 10*time.Minute {
		t.Fatalf("adaptive off: keep-alive %v, want 10m", got)
	}
}

func TestConcurrentRequestsScaleOut(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	// Both arrive before the first finishes → two containers.
	p.ScheduleInvocations("f", []simtime.Time{0, 10 * time.Millisecond})
	e.Run()
	if f.stats.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2", f.stats.ColdStarts)
	}
	if p.ContainersCreated() != 2 {
		t.Fatalf("containers = %d, want 2", p.ContainersCreated())
	}
}

func TestKeepAliveExpiryReleasesMemory(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.Run()
	if p.LiveContainers() != 0 {
		t.Fatalf("live containers = %d, want 0 after keep-alive expiry", p.LiveContainers())
	}
	if p.NodeLocalBytes() != 0 {
		t.Fatalf("node local = %d, want 0 after recycle", p.NodeLocalBytes())
	}
}

// TestNodeLedger checks Platform.account on its own: a charge adds local
// bytes, an offload or recall moves bytes between local and remote, a
// recycle drops both, and the averages and the peak are time-weighted over
// the platform's lifetime.
func TestNodeLedger(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	at := func(s int) simtime.Time { return simtime.Time(time.Duration(s) * time.Second) }
	p.account(0, 1000)            // charge
	p.account(at(10), -400, 400)  // offload
	p.account(at(20), 100, -100)  // recall
	p.account(at(30), -700, -300) // recycle
	if p.NodeLocalBytes() != 0 || p.NodeRemoteBytes() != 0 {
		t.Fatalf("after recycle local/remote = %d/%d, want 0/0", p.NodeLocalBytes(), p.NodeRemoteBytes())
	}
	e.RunUntil(at(40))
	// Local: 1000, 600, 700, 0 for 10 s each; remote: 0, 400, 300, 0.
	if got := p.NodeLocalAvg(); got != 575 {
		t.Errorf("NodeLocalAvg = %v, want 575", got)
	}
	if got := p.NodeRemoteAvg(); got != 175 {
		t.Errorf("NodeRemoteAvg = %v, want 175", got)
	}
	if got := p.NodeLocalPeak(); got != 1000 {
		t.Errorf("NodeLocalPeak = %d, want 1000", got)
	}
}

func TestNodeMemoryDuringKeepAlive(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.RunUntil(2 * time.Second) // request done, container idle
	// Base footprint resident: runtime + init (exec freed).
	want := int64(1*workload.MB + 512*1024)
	// Page rounding may add up to a page per segment.
	if got := p.NodeLocalBytes(); got < want || got > want+2*4096 {
		t.Fatalf("idle node local = %d, want ~%d", got, want)
	}
}

func TestExecSegmentFreedAfterRequest(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	var during, after int64
	e.At(550*time.Millisecond, func(*simtime.Engine) { during = p.NodeLocalBytes() })
	e.At(700*time.Millisecond, func(*simtime.Engine) { after = p.NodeLocalBytes() })
	e.RunUntil(time.Second)
	if during <= after {
		t.Fatalf("exec memory not freed: during=%d after=%d", during, after)
	}
	if during-after < 256*1024 {
		t.Fatalf("freed %d bytes, want >= exec segment", during-after)
	}
}

// offloadAllPolicy offloads every inactive runtime/init page when the
// container goes idle — a scriptable probe for the fault path.
type offloadAllPolicy struct{}

func (offloadAllPolicy) Name() string { return "offload-all" }
func (offloadAllPolicy) Attach(e *simtime.Engine, v policy.View) policy.ContainerPolicy {
	return &offloadAllContainer{view: v}
}

type offloadAllContainer struct {
	policy.Base
	view policy.View
}

func (c *offloadAllContainer) Idle(e *simtime.Engine) {
	for _, r := range []pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		c.view.OffloadPages(e, []pagemem.Selection{{R: r, St: pagemem.Inactive}, {R: r, St: pagemem.Hot}}, 0)
	}
}

func TestOffloadedPagesFaultBackOnAccess(t *testing.T) {
	e, p := newTestPlatform(offloadAllPolicy{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	e.Run()
	if f.stats.FaultPages == 0 {
		t.Fatal("second request should fault on offloaded pages")
	}
	// offloadAllPolicy does not implement policy.SemiWarmer, so the reuse is
	// classified as a plain warm start despite the remote pages.
	if f.stats.WarmStarts != 1 || f.stats.SemiWarmStarts != 0 {
		t.Fatalf("warm/semi-warm starts = %d/%d, want 1/0",
			f.stats.WarmStarts, f.stats.SemiWarmStarts)
	}
	// The faulting (second) request pays a latency penalty over pure exec.
	if f.stats.Latency.Percentile(0) <= 0.1 {
		t.Fatalf("faulting request latency %v did not exceed exec time", f.stats.Latency.Percentile(0))
	}
}

// TestFaultStatsCountDeliveredPagesOnly: fault statistics count the pages
// a fetch delivered, never a walk whose fetch timed out. The second request
// finds its container fully offloaded while the pool node is down, so its
// fetch times out. With the swap fallback the walked pages are served
// locally and count; without it the request is replayed on a cold
// re-initialized container, which faults nothing, so nothing counts. Either
// way the statistics equal what the completed requests recorded.
func TestFaultStatsCountDeliveredPagesOnly(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		swap := SwapConfig{}
		if fallback {
			swap.FallbackReadLatency = 50 * time.Microsecond
		}
		e := simtime.NewEngine()
		tr := telemetry.NewTracer(0)
		p := New(e, Config{
			KeepAliveTimeout: 10 * time.Second,
			Pool: rmem.Config{Faults: faultinject.FromWindows([]faultinject.Window{
				{Kind: faultinject.PoolCrash, Start: simtime.Time(time.Second), End: simtime.Time(time.Hour)},
			})},
			Swap:      swap,
			Telemetry: telemetry.Hub{Tracer: tr},
			Seed:      1,
		}, offloadAllPolicy{})
		f := p.Register("f", tinyProfile())
		p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
		e.Run()
		st := f.Stats()
		// Each completed request's trace event carries its fault count.
		var recorded int64
		for _, ev := range requestEvents(tr.Events()) {
			recorded += ev.Value
		}
		if st.FetchTimeouts != 1 || st.Requests != 2 {
			t.Fatalf("fallback %v: %d fetch timeouts over %d requests, want 1 over 2", fallback, st.FetchTimeouts, st.Requests)
		}
		if st.FaultPages != recorded || st.RuntimeFaultPages+st.InitFaultPages != recorded {
			t.Errorf("fallback %v: fault pages %d (runtime %d + init %d), completed requests recorded %d",
				fallback, st.FaultPages, st.RuntimeFaultPages, st.InitFaultPages, recorded)
		}
		if (recorded > 0) != fallback {
			t.Errorf("fallback %v: completed requests recorded %d fault pages", fallback, recorded)
		}
	}
}

func TestOffloadRespectsPoolCapacity(t *testing.T) {
	e := simtime.NewEngine()
	// Pool fits only 16 pages.
	p := New(e, Config{
		KeepAliveTimeout: 10 * time.Second,
		Pool:             rmem.Config{Capacity: 16 * 4096},
		Seed:             1,
	}, offloadAllPolicy{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.RunUntil(2 * time.Second)
	if got := p.Pool().Used(); got > 16*4096 {
		t.Fatalf("pool used %d exceeds capacity", got)
	}
	// Not everything could be offloaded.
	fc := f.idle[0]
	if fc.Space().RemoteBytes() > 16*4096 {
		t.Fatalf("remote bytes %d exceed pool capacity", fc.Space().RemoteBytes())
	}
	if fc.Space().LocalBytes() == 0 {
		t.Fatal("all pages left local memory despite full pool")
	}
}

// TestSegmentRangesAndBarriers checks that the two time barriers split the
// container's pages into the Runtime and Init Puckets, [0, r) and
// [r, NumPages), and that their barrier events carry the Puckets'
// generation numbers, 0 then 1.
func TestSegmentRangesAndBarriers(t *testing.T) {
	e := simtime.NewEngine()
	tr := telemetry.NewTracer(64)
	p := New(e, Config{KeepAliveTimeout: 10 * time.Second, Seed: 1, Telemetry: telemetry.Hub{Tracer: tr}}, policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.RunUntil(time.Second)
	c := f.idle[0]
	rt, in := c.RuntimeRange(), c.InitRange()
	if rt.Len() == 0 || in.Len() == 0 {
		t.Fatal("segment ranges not established")
	}
	if rt.Start != 0 || in.Start != rt.End || int(in.End) != numPages(c.Space()) {
		t.Fatalf("runtime %v, init %v: want [0, r) and [r, %d)", rt, in, numPages(c.Space()))
	}
	// Hot pages from request execution joined the hot pool.
	if c.Space().CountState(pagemem.Hot) == 0 {
		t.Fatal("no pages promoted to the hot pool")
	}
	var gens []int64
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindBarrierInsert && ev.Actor == c.ID() {
			gens = append(gens, ev.Aux)
		}
	}
	if len(gens) != 2 || gens[0] != 0 || gens[1] != 1 {
		t.Fatalf("barrier generations = %v, want [0 1]", gens)
	}
}

func TestStallFractionTracksFaults(t *testing.T) {
	e, p := newTestPlatform(offloadAllPolicy{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	e.RunUntil(5 * time.Second) // before keep-alive expiry
	c := f.idle[0]
	if c.StallFraction() <= 0 {
		t.Fatal("stall fraction should be positive after faulting request")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	_, p := newTestPlatform(policy.NoOffload{})
	p.Register("f", tinyProfile())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	p.Register("f", tinyProfile())
}

func TestInvokeUnregisteredPanics(t *testing.T) {
	_, p := newTestPlatform(policy.NoOffload{})
	defer func() {
		if recover() == nil {
			t.Fatal("Invoke of unknown function did not panic")
		}
	}()
	p.Invoke("ghost", nil, false)
}

func TestReplayTrace(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	tr := &trace.Trace{Duration: time.Minute, Functions: []*trace.Function{
		{ID: "a", Invocations: []simtime.Time{0, 30 * time.Second}},
		{ID: "b", Invocations: []simtime.Time{time.Second}},
	}}
	p.ReplayTrace(tr, func(i int, f *trace.Function) *workload.Profile { return tinyProfile() })
	e.Run()
	if got := p.Function("a").Stats().Requests; got != 2 {
		t.Fatalf("a requests = %d, want 2", got)
	}
	if got := p.Function("b").Stats().Requests; got != 1 {
		t.Fatalf("b requests = %d, want 1", got)
	}
	if len(p.Functions()) != 2 {
		t.Fatalf("functions = %d", len(p.Functions()))
	}
}

// TestScheduleKeepsOneArrivalPerFunction checks that a scheduled timeline
// holds one pending event per function, not one per invocation, and that
// every invocation still arrives.
func TestScheduleKeepsOneArrivalPerFunction(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	ids := []string{"a", "b", "c"}
	var want int
	for i, id := range ids {
		p.Register(id, tinyProfile())
		tr := trace.GenerateFunction(id, 10*time.Minute, 5*time.Second, true, int64(i))
		p.ScheduleInvocations(id, tr.Invocations)
		want += len(tr.Invocations)
	}
	if e.Pending() != len(ids) {
		t.Fatalf("Pending() = %d after scheduling %d invocations, want %d (one per function)", e.Pending(), want, len(ids))
	}
	e.Run()
	var got int
	for _, f := range p.Functions() {
		got += f.Stats().Requests
	}
	if got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
}

func TestNodeLocalAvgPositive(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.Run()
	if p.NodeLocalAvg() <= 0 {
		t.Fatal("node local average should be positive after activity")
	}
	if p.NodeLocalPeak() <= 0 {
		t.Fatal("node local peak should be positive")
	}
}

func TestLIFOReuse(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	// Create two containers via overlap, then send one request: the most
	// recently idled container should serve it.
	p.ScheduleInvocations("f", []simtime.Time{0, 50 * time.Millisecond, 5 * time.Second})
	e.RunUntil(4 * time.Second)
	if len(f.idle) != 2 {
		t.Fatalf("idle containers = %d, want 2", len(f.idle))
	}
	last := f.idle[1]
	e.Run()
	if last.RequestsServed() != 2 {
		t.Fatalf("LIFO reuse violated: most recently idled served %d requests", last.RequestsServed())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int64) {
		e, p := newTestPlatform(offloadAllPolicy{})
		f := p.Register("f", tinyProfile())
		tr := trace.GenerateFunction("f", 10*time.Minute, 20*time.Second, true, 42)
		p.ScheduleInvocations("f", tr.Invocations)
		e.Run()
		return f.stats.Latency.P95(), f.stats.FaultPages
	}
	l1, f1 := run()
	l2, f2 := run()
	if l1 != l2 || f1 != f2 {
		t.Fatalf("runs diverge: (%v,%d) vs (%v,%d)", l1, f1, l2, f2)
	}
}

func TestSwapSlotsReleasedOnFault(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{KeepAliveTimeout: 30 * time.Second, Seed: 1}, offloadAllPolicy{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	// Every remote page holds one swap slot.
	slots := func() int64 { return p.NodeRemoteBytes() / pagemem.DefaultPageSize }
	var afterOffload, afterFault int64
	e.At(1500*time.Millisecond, func(*simtime.Engine) { afterOffload = slots() })
	// Sample mid-execution of the second request (it re-offloads at idle).
	e.At(2050*time.Millisecond, func(*simtime.Engine) { afterFault = slots() })
	e.RunUntil(5 * time.Second)
	if afterOffload == 0 {
		t.Fatal("no slots allocated by offload")
	}
	if afterFault >= afterOffload {
		t.Fatalf("faults did not release slots: %d -> %d", afterOffload, afterFault)
	}
}

func TestReleaseReturnsSlots(t *testing.T) {
	// Slots freed by swap-in or teardown leave the node's remote gauge: it
	// follows the node's remote bytes, down to zero once the container is
	// recycled.
	e := simtime.NewEngine()
	reg := telemetry.NewRegistry()
	p := New(e, Config{KeepAliveTimeout: 10 * time.Second, Seed: 1, Telemetry: telemetry.Hub{Reg: reg}}, offloadAllPolicy{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	gauge := reg.Gauge("faasmem_node_remote_bytes", "")
	var offloaded int64
	check := func(at time.Duration) {
		e.At(simtime.Time(at), func(*simtime.Engine) {
			if got, want := gauge.Value(), p.NodeRemoteBytes(); got != want {
				t.Errorf("at %v: remote gauge = %d, node remote = %d", at, got, want)
			}
			offloaded = max(offloaded, gauge.Value())
		})
	}
	check(1500 * time.Millisecond) // offloaded while idle
	check(2050 * time.Millisecond) // mid-request, after its faults
	e.Run()
	if offloaded == 0 {
		t.Fatal("no slots allocated by offload")
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("remote gauge = %d after recycle, want 0", got)
	}
}

func TestReadaheadConfig(t *testing.T) {
	window := func(ra int) int {
		p := New(simtime.NewEngine(), Config{Swap: SwapConfig{ReadaheadPages: ra}}, policy.NoOffload{})
		return p.Config().Swap.ReadaheadPages
	}
	if window(8) != 8 {
		t.Error("readahead not configured")
	}
	if window(-1) != 0 {
		t.Error("negative readahead should clamp to 0")
	}
}

func TestReadaheadReducesFaults(t *testing.T) {
	run := func(ra int) (faults int64, recalled int64) {
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout: 30 * time.Second,
			Swap:             SwapConfig{ReadaheadPages: ra},
			Seed:             1,
		}, offloadAllPolicy{})
		f := p.Register("f", tinyProfile())
		p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
		e.RunUntil(5 * time.Second)
		return f.Stats().FaultPages, p.Pool().Meter(rmem.Recall).Total()
	}
	f0, r0 := run(0)
	f8, r8 := run(8)
	if f8 >= f0 {
		t.Fatalf("readahead did not reduce faults: %d vs %d", f8, f0)
	}
	// The same hot set comes back either way (readahead pages count as
	// recalled traffic).
	if r8 < r0 {
		t.Fatalf("readahead recalled less data: %d vs %d", r8, r0)
	}
}

func TestStartKindStrings(t *testing.T) {
	if span.Cold.String() != "cold" || span.Warm.String() != "warm" ||
		span.SemiWarm.String() != "semi-warm" {
		t.Error("start kind strings")
	}
}
