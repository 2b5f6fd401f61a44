package faas

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

func TestRecycleClearsLastIdleSlot(t *testing.T) {
	e, p := newTestPlatform(policy.NoOffload{})
	f := p.Register("f", tinyProfile())
	// Two overlapping requests launch two containers; both end up idle.
	p.ScheduleInvocations("f", []simtime.Time{0, 0})
	e.RunUntil(simtime.Time(time.Second))
	if len(f.idle) != 2 {
		t.Fatalf("idle containers = %d, want 2", len(f.idle))
	}
	last := f.idle[len(f.idle)-1]
	last.recycle(0)
	if len(f.idle) != 1 {
		t.Fatalf("idle containers after recycle = %d, want 1", len(f.idle))
	}
	for i, c := range f.idle[:cap(f.idle)] {
		if c == last {
			t.Fatalf("idle stack slot %d still holds the recycled container", i)
		}
	}
}

// warmRequests builds a platform under the FaaSMem policy with one Web
// container, cold-starts it and serves enough warm requests to fix the
// Init-Pucket window and run rollback cycles, so every buffer has reached
// its size. The returned request serves one more warm request on it and
// runs until the container is idle again.
func warmRequests(tb testing.TB) (request func(), p *Platform) {
	e, p := newTestPlatform(core.New(core.Config{}))
	prof := workload.Web()
	p.Register("web", prof)
	serve := func(gap time.Duration) {
		p.Invoke("web", nil, false)
		e.RunUntil(e.Now() + simtime.Time(gap))
	}
	gap := prof.ExecTime + time.Second
	serve(prof.LaunchTime + prof.InitTime + gap)
	for i := 0; i < 64; i++ {
		serve(gap)
	}
	return func() { serve(gap) }, p
}

// checkOneWarmContainer fails unless every request so far reused the one
// container the first request launched.
func checkOneWarmContainer(tb testing.TB, p *Platform) {
	tb.Helper()
	if f := p.Function("web"); p.ContainersCreated() != 1 || f.stats.ColdStarts != 1 {
		tb.Fatalf("containers = %d, cold starts = %d; want one warm container",
			p.ContainersCreated(), f.stats.ColdStarts)
	}
}

// TestWarmRequestAllocationFree: once warm, a request — dispatch, touch
// walk, policy hooks, completion and keep-alive — allocates nothing beyond
// the amortized growth of the per-function statistics.
func TestWarmRequestAllocationFree(t *testing.T) {
	request, p := warmRequests(t)
	if n := testing.AllocsPerRun(200, request); n != 0 {
		t.Fatalf("a warm request made %v allocations, want 0", n)
	}
	checkOneWarmContainer(t, p)
}

// BenchmarkContainerLaunch times one cold start under the FaaSMem policy:
// launch, the runtime and init stages, the first request and its finish,
// then the recycle that makes the next invocation cold again.
func BenchmarkContainerLaunch(b *testing.B) {
	e, p := newTestPlatform(core.New(core.Config{}))
	prof := workload.Web()
	f := p.Register("web", prof)
	cold := simtime.Time(prof.LaunchTime + prof.InitTime + prof.ExecTime + time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Invoke("web", nil, false)
		e.RunUntil(e.Now() + cold)
		c := f.IdleContainer()
		if c == nil {
			b.Fatal("the cold request did not finish")
		}
		c.recycle(0)
	}
	b.StopTimer()
	if f.stats.ColdStarts != b.N {
		b.Fatalf("cold starts = %d, want %d", f.stats.ColdStarts, b.N)
	}
}

// BenchmarkContainerRequest times one warm request on an already-warm
// container under the FaaSMem policy: dispatch, execute (touch walk and
// policy hooks), finish and keep-alive. Its steady state allocates nothing.
func BenchmarkContainerRequest(b *testing.B) {
	request, p := warmRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	checkOneWarmContainer(b, p)
}
