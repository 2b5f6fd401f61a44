package policy_test

import (
	"slices"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

func prof() *workload.Profile {
	return &workload.Profile{
		Name:            "t",
		Language:        workload.Python,
		CPUShare:        0.1,
		RuntimeBytes:    2 * workload.MB,
		RuntimeHotBytes: 512 * 1024,
		InitBytes:       1 * workload.MB,
		InitHotBytes:    256 * 1024,
		Pattern:         workload.FixedHot,
		ExecBytes:       128 * 1024,
		ExecTime:        50 * time.Millisecond,
		InitTime:        100 * time.Millisecond,
		LaunchTime:      100 * time.Millisecond,
		QuotaBytes:      8 * workload.MB,
	}
}

func run(pol policy.Policy, invocations []simtime.Time, until time.Duration) (*faas.Platform, *faas.Function) {
	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{KeepAliveTimeout: 10 * time.Minute, Seed: 5}, pol)
	f := p.Register("t", prof())
	p.ScheduleInvocations("t", invocations)
	if until > 0 {
		e.RunUntil(until)
	} else {
		e.Run()
	}
	return p, f
}

func secs(vals ...float64) []simtime.Time {
	out := make([]simtime.Time, len(vals))
	for i, v := range vals {
		out[i] = simtime.Time(v * float64(time.Second))
	}
	return out
}

func TestNoOffloadNeverTouchesPool(t *testing.T) {
	p, f := run(policy.NoOffload{}, secs(0, 1, 2), 0)
	if p.Pool().Used() != 0 || p.Pool().Meter(rmemOffload).Total() != 0 {
		t.Fatal("baseline moved bytes to the pool")
	}
	if f.Stats().FaultPages != 0 {
		t.Fatal("baseline faulted")
	}
	if (policy.NoOffload{}).Name() == "" {
		t.Fatal("baseline must have a name")
	}
}

// rmemOffload mirrors rmem.Offload without importing it in this test.
const rmemOffload = 0

func TestTMOOffloadsSlowly(t *testing.T) {
	// One request, then a long keep-alive: TMO steps every 6 s at 0.05%.
	p, _ := run(policy.NewTMO(policy.TMOConfig{}), secs(0), 2*time.Minute)
	used := p.Pool().Used()
	if used == 0 {
		t.Fatal("TMO offloaded nothing during keep-alive")
	}
	// ~19 steps × 0.05% of ~3.1 MB ≈ 30 KB; must be far below the cold-page
	// total (~2.25 MB). Allow generous slack.
	if used > 1*workload.MB {
		t.Fatalf("TMO offloaded %d bytes; conservative stepping expected ≤ 1 MB", used)
	}
}

func TestTMOOffloadRatioMatchesPaperBound(t *testing.T) {
	// §2.2: "the offloading ratio of a 10-minute period is within 3.0%".
	p, f := run(policy.NewTMO(policy.TMOConfig{}), secs(0), 10*time.Minute)
	total := float64(p.Pool().Used())
	// Approximate container footprint: runtime + init.
	foot := float64(3 * workload.MB)
	ratio := total / foot
	if ratio > 0.05 {
		t.Fatalf("TMO 10-minute offload ratio = %.3f, want ≤ ~0.03", ratio)
	}
	if f.Stats().Requests != 1 {
		t.Fatalf("requests = %d", f.Stats().Requests)
	}
}

func TestTMOPausesUnderStall(t *testing.T) {
	// TMO's feedback loop: while the container's PSI shows memory pressure
	// (remote faults stalling requests), offload steps pause; a variant with
	// an unreachable threshold keeps going. Compare offload traffic during
	// the pressured phase.
	inv := secs(0, 3, 4, 5, 6, 7, 8, 9)
	sensitive := policy.NewTMO(policy.TMOConfig{StepFraction: 0.5, StepInterval: time.Second, StallThreshold: 0.00001})
	fearless := policy.NewTMO(policy.TMOConfig{StepFraction: 0.5, StepInterval: time.Second, StallThreshold: 1e9})
	pS, fS := run(sensitive, inv, 10*time.Second)
	pF, fF := run(fearless, inv, 10*time.Second)
	if fS.Stats().FaultPages == 0 || fF.Stats().FaultPages == 0 {
		t.Skip("no faults generated; nothing to verify")
	}
	offS := pS.Pool().Meter(rmemOffload).Total()
	offF := pF.Pool().Meter(rmemOffload).Total()
	if offS >= offF {
		t.Fatalf("pressure-sensitive TMO offloaded %d >= fearless %d", offS, offF)
	}
}

func TestDAMONOffloadsEverythingDuringKeepAlive(t *testing.T) {
	p, _ := run(policy.NewDAMON(policy.DAMONConfig{}), secs(0), time.Minute)
	// After ~1 min idle with 5 s aggregation and 2-cold threshold, all
	// runtime+init pages look cold and are offloaded.
	want := int64(3 * workload.MB)
	if used := p.Pool().Used(); used < want*9/10 {
		t.Fatalf("DAMON offloaded %d, want ~%d (everything)", used, want)
	}
}

func TestDAMONCausesFaultStorm(t *testing.T) {
	// Fig. 2: requests after an idle gap fault on their whole hot set.
	_, f := run(policy.NewDAMON(policy.DAMONConfig{}), secs(0, 60), 2*time.Minute)
	if f.Stats().FaultPages == 0 {
		t.Fatal("request after idle gap should fault heavily under DAMON")
	}
	// The faulting request's latency exceeds the pure exec time clearly.
	if f.Stats().Latency.Max() <= 0.06 {
		t.Fatalf("max latency %.3f shows no fault penalty", f.Stats().Latency.Max())
	}
}

func TestDAMONVsBaselineP95(t *testing.T) {
	// Periodic requests with 30 s gaps: DAMON's constant sampling offloads
	// hot pages between requests; baseline stays fast.
	var inv []simtime.Time
	for i := 0; i < 20; i++ {
		inv = append(inv, simtime.Time(i*30)*simtime.Time(time.Second))
	}
	runP95 := func(pol policy.Policy) float64 {
		e := simtime.NewEngine()
		p := faas.New(e, faas.Config{KeepAliveTimeout: 10 * time.Minute, Seed: 5}, pol)
		f := p.Register("t", prof())
		p.ScheduleInvocations("t", inv)
		e.Run()
		_ = p
		return f.Stats().Latency.P95()
	}
	base := runP95(policy.NoOffload{})
	damon := runP95(policy.NewDAMON(policy.DAMONConfig{}))
	if damon <= base {
		t.Fatalf("DAMON P95 %.4f not worse than baseline %.4f", damon, base)
	}
}

// TestCollectPages checks the per-page victim reference and that Prefix
// agrees with it: the prefix of r holding max pages in a state holds
// exactly the reference's pages, and ends at the last of them.
func TestCollectPages(t *testing.T) {
	s := pagemem.NewSpace(4096)
	r := s.Alloc(pagemem.SegInit, 10)
	s.MoveRange(pagemem.Range{Start: r.Start + 2, End: r.Start + 4}, pagemem.Inactive, pagemem.Hot)
	s.MoveRange(pagemem.Range{Start: r.Start + 4, End: r.Start + 5}, pagemem.Inactive, pagemem.Remote)
	inactive := policy.CollectPages(s, r, pagemem.Inactive, 0)
	if len(inactive) != 7 {
		t.Fatalf("inactive = %d, want 7", len(inactive))
	}
	hot := policy.CollectPages(s, r, pagemem.Hot, 1)
	if len(hot) != 1 || hot[0] != r.Start+2 {
		t.Fatalf("hot with max=1 = %v", hot)
	}
	for _, st := range []pagemem.State{pagemem.Inactive, pagemem.Hot, pagemem.Remote, pagemem.Local} {
		for max := 0; max <= 10; max++ {
			want := policy.CollectPages(s, r, st, max)
			p, n := s.Prefix(r, st, max)
			got := policy.CollectPages(s, p, st, 0)
			if n != len(want) || !slices.Equal(got, want) ||
				max > 0 && n == max && p.End != want[n-1]+1 {
				t.Fatalf("Prefix(%v, %d) = %v (%d) holding %v, want %v", st, max, p, n, got, want)
			}
		}
	}
}

func TestTMODefaults(t *testing.T) {
	tmo := policy.NewTMO(policy.TMOConfig{})
	if tmo.Name() != "tmo" {
		t.Fatal("name")
	}
	damon := policy.NewDAMON(policy.DAMONConfig{})
	if damon.Name() != "damon" {
		t.Fatal("name")
	}
}

func TestBaseIsNoop(t *testing.T) {
	var b policy.Base
	e := simtime.NewEngine()
	b.RuntimeLoaded(e)
	b.InitDone(e)
	b.RequestStart(e)
	b.RequestEnd(e)
	b.Idle(e)
	b.Recycle(e)
	if e.Pending() != 0 {
		t.Fatal("Base scheduled events")
	}
}
