package faas

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/fastswap"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
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
	if got := f.stats.Latency.Min(); got != 0.1 {
		t.Fatalf("warm latency = %v, want 0.1", got)
	}
	// Reused interval = gap since idle: request done at 0.6s, next at 2s.
	if len(f.stats.ReusedIntervals) != 1 || f.stats.ReusedIntervals[0] != 1400*time.Millisecond {
		t.Fatalf("reused intervals = %v, want [1.4s]", f.stats.ReusedIntervals)
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
	if f.stats.Latency.Min() <= 0.1 {
		t.Fatalf("faulting request latency %v did not exceed exec time", f.stats.Latency.Min())
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
	p.Invoke("ghost")
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

func TestSwapSlotsLimitOffloading(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout: 10 * time.Second,
		Swap:             fastswap.Config{Slots: 16},
		Seed:             1,
	}, offloadAllPolicy{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.RunUntil(2 * time.Second)
	if got := p.remotePages(); got != 16 {
		t.Fatalf("swap used = %d, want full 16 slots", got)
	}
	fc := f.IdleContainer()
	if fc.Space().RemoteBytes() != 16*4096 {
		t.Fatalf("remote bytes = %d, want 16 pages", fc.Space().RemoteBytes())
	}
	// Slots come back at recycle.
	e.Run()
	if got := p.remotePages(); got != 0 {
		t.Fatalf("swap used after recycle = %d", got)
	}
}

func TestSwapSlotsReleasedOnFault(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{KeepAliveTimeout: 30 * time.Second, Seed: 1}, offloadAllPolicy{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	var afterOffload, afterFault int
	e.At(1500*time.Millisecond, func(*simtime.Engine) { afterOffload = p.remotePages() })
	// Sample mid-execution of the second request (it re-offloads at idle).
	e.At(2050*time.Millisecond, func(*simtime.Engine) { afterFault = p.remotePages() })
	e.RunUntil(5 * time.Second)
	if afterOffload == 0 {
		t.Fatal("no slots allocated by offload")
	}
	if afterFault >= afterOffload {
		t.Fatalf("faults did not release slots: %d -> %d", afterOffload, afterFault)
	}
}

func TestReadaheadReducesFaults(t *testing.T) {
	run := func(ra int) (faults int64, recalled int64) {
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout: 30 * time.Second,
			Swap:             fastswap.Config{ReadaheadPages: ra},
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

func TestConcurrencyCapQueuesRequests(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout:         10 * time.Second,
		MaxContainersPerFunction: 1,
		Seed:                     1,
	}, policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	// Three requests land while the single allowed container cold-starts.
	p.ScheduleInvocations("f", []simtime.Time{0, 10 * time.Millisecond, 20 * time.Millisecond})
	e.RunUntil(200 * time.Millisecond)
	if got := f.QueuedRequests(); got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
	e.Run()
	if p.ContainersCreated() != 1 {
		t.Fatalf("containers = %d, want 1 (cap)", p.ContainersCreated())
	}
	if f.stats.Requests != 3 {
		t.Fatalf("requests = %d, want 3", f.stats.Requests)
	}
	// Back-to-back service: request i completes at cold(0.6) + i*exec(0.1).
	lat := f.stats.Latency
	if lat.Max() < 0.75 {
		t.Fatalf("queued request latency max = %v, want ~0.78 (wait included)", lat.Max())
	}
	if f.QueuedRequests() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestCongestionInflatesTail(t *testing.T) {
	// The Table-1 ID-5 shape: a surge against capped scale-out inflates the
	// tail for every policy alike.
	run := func(cap int) float64 {
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout:         time.Minute,
			MaxContainersPerFunction: cap,
			Seed:                     2,
		}, policy.NoOffload{})
		f := p.Register("f", tinyProfile())
		var inv []simtime.Time
		for i := 0; i < 40; i++ {
			inv = append(inv, simtime.Time(i)*simtime.Time(50*time.Millisecond))
		}
		p.ScheduleInvocations("f", inv)
		e.Run()
		return f.stats.Latency.P95()
	}
	uncapped := run(0)
	capped := run(1) // service rate (10/s) below arrival rate (20/s)
	if capped <= uncapped {
		t.Fatalf("congestion did not inflate tail: capped %.3f vs uncapped %.3f", capped, uncapped)
	}
	// The backlog compounds: the worst queued request waits several seconds.
	if capped < 1 {
		t.Fatalf("capped P95 %.3f shows no queueing backlog", capped)
	}
}

func TestExecLatencyExcludesColdStart(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.Run()
	if got := f.stats.ExecLatency.Mean(); got != 0.1 {
		t.Fatalf("exec latency = %v, want 0.1 (exec only)", got)
	}
	if got := f.stats.Latency.Mean(); got != 0.6 {
		t.Fatalf("e2e latency = %v, want 0.6 (incl. cold start)", got)
	}
}

func TestRequestLogRecordsPaths(t *testing.T) {
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout: 30 * time.Second,
		RequestLogSize:   8,
		Seed:             1,
	}, offloadAllPolicy{})
	p.Register("f", tinyProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	e.RunUntil(5 * time.Second)
	recs := p.RequestLog().Items()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Kind != ColdStart || recs[1].Kind != WarmStart {
		t.Fatalf("kinds = %v/%v, want cold/warm", recs[0].Kind, recs[1].Kind)
	}
	if recs[1].FaultPages == 0 || recs[1].StallTime == 0 {
		t.Fatalf("warm record missing fault accounting: %+v", recs[1])
	}
	if recs[0].Latency <= recs[0].ExecLatency {
		t.Fatal("cold record should have latency > exec latency")
	}
}

func TestRequestLogRingEviction(t *testing.T) {
	arrivals := []simtime.Time{0, 2 * time.Second, 4 * time.Second, 6 * time.Second, 8 * time.Second}
	run := func(size int) []RequestRecord {
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout: 30 * time.Second,
			RequestLogSize:   size,
			Seed:             1,
		}, offloadAllPolicy{})
		p.Register("f", tinyProfile())
		p.ScheduleInvocations("f", arrivals)
		e.RunUntil(15 * time.Second)
		if got := p.RequestLog().Total(); got != uint64(len(arrivals)) {
			t.Fatalf("size %d: pushed %d records, want %d", size, got, len(arrivals))
		}
		return p.RequestLog().Items()
	}
	for _, size := range []int{0, -1} {
		if recs := run(size); len(recs) != 0 {
			t.Fatalf("size %d should keep no records, got %d", size, len(recs))
		}
	}
	recs := run(3)
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3", len(recs))
	}
	for i, r := range recs {
		if want := arrivals[len(arrivals)-3+i]; r.Arrival != want {
			t.Fatalf("record %d arrived at %v, want %v (ring order wrong)", i, r.Arrival, want)
		}
	}
}

func TestStartKindStrings(t *testing.T) {
	if ColdStart.String() != "cold" || WarmStart.String() != "warm" ||
		SemiWarmStart.String() != "semi-warm" || QueuedStart.String() != "queued" {
		t.Error("start kind strings")
	}
}
