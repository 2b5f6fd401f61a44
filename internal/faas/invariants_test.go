package faas

// Invariant tests: a container's residency is derived from its page Space
// (plus an in-flight request's exec charge), and the node books the same
// bytes once more in its time-weighted ledger, the pool in its remote
// ledger, and the registry in its node remote gauge. A policy or platform
// path that moved pages without booking them, or booked them twice, would
// silently invalidate every figure, so these checks run random workloads,
// with and without every remote-memory feature on, and reconcile the books
// at seeded instants mid-run — busy containers included — and after drain.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// ledgerProbe wraps a policy to see every container it is attached to, and
// whether each is mid-request, so reconcile covers busy containers as well
// as idle ones.
type ledgerProbe struct {
	policy.Policy
	seen []*probedContainer
}

// probedContainer forwards a container's hooks to the wrapped policy and
// tracks RequestStart/RequestEnd itself, independently of the exec charge
// the platform books.
type probedContainer struct {
	policy.ContainerPolicy
	c        *Container
	inFlight bool
}

func (lp *ledgerProbe) Attach(e *simtime.Engine, v policy.View) policy.ContainerPolicy {
	pc := &probedContainer{ContainerPolicy: lp.Policy.Attach(e, v), c: v.(*Container)}
	lp.seen = append(lp.seen, pc)
	return pc
}

func (pc *probedContainer) RequestStart(e *simtime.Engine) {
	pc.inFlight = true
	pc.ContainerPolicy.RequestStart(e)
}

func (pc *probedContainer) RequestEnd(e *simtime.Engine) {
	pc.inFlight = false
	pc.ContainerPolicy.RequestEnd(e)
}

// InSemiWarm keeps the wrapped policy's semi-warm classification visible.
func (pc *probedContainer) InSemiWarm() bool {
	sw, ok := pc.ContainerPolicy.(policy.SemiWarmer)
	return ok && sw.InSemiWarm()
}

// reconcile asserts that the node ledger equals the sums over live
// containers of their Space bytes plus, for each one mid-request, its exec
// segment; that every container's MemoryBytes is that same residency; that
// the pool holds exactly the remote bytes; and that the swap-slot gauge
// reads the node's remote pages.
func reconcile(t *testing.T, p *Platform, lp *ledgerProbe, reg *telemetry.Registry, label string) {
	t.Helper()
	var local, remote int64
	live := 0
	for _, pc := range lp.seen {
		c := pc.c
		if c.dead {
			continue
		}
		live++
		cl, cr := c.space.LocalBytes(), c.space.RemoteBytes()
		if pc.inFlight {
			cl += c.space.BytesOf(c.space.PagesOf(c.fn.profile.ExecBytes))
		}
		if got := c.MemoryBytes(); got != cl+cr {
			t.Errorf("%s: %s MemoryBytes %d != local %d + remote %d", label, c.id, got, cl, cr)
		}
		local += cl
		remote += cr
	}
	if live != p.LiveContainers() {
		t.Fatalf("%s: %d live containers attached but the node counts %d", label, live, p.LiveContainers())
	}
	if got := p.NodeLocalBytes(); got != local {
		t.Errorf("%s: node local %d != sum of containers %d", label, got, local)
	}
	if got := p.NodeRemoteBytes(); got != remote {
		t.Errorf("%s: node remote %d != sum of containers %d", label, got, remote)
	}
	if got := p.Pool().Used(); got != remote {
		t.Errorf("%s: pool used %d != container remote %d", label, got, remote)
	}
	if got := reg.Gauge("faasmem_node_remote_bytes", "").Value(); got != remote {
		t.Errorf("%s: node remote gauge %d != container remote %d", label, got, remote)
	}
}

// checkInstants picks n reconcile instants, each a random arrival of
// arrivals plus a random offset below spread, so that many land while a
// request is executing.
func checkInstants(rng *rand.Rand, arrivals []simtime.Time, n int, spread time.Duration) []simtime.Time {
	at := make([]simtime.Time, n)
	for i := range at {
		at[i] = arrivals[rng.Intn(len(arrivals))] + simtime.Time(rng.Int63n(int64(spread)))
	}
	slices.Sort(at)
	return at
}

// runReconciled runs e to completion, reconciling at each instant of at and
// after drain, which must leave nothing behind. It returns how many of the
// mid-run checks found a container mid-request.
func runReconciled(t *testing.T, e *simtime.Engine, p *Platform, lp *ledgerProbe, reg *telemetry.Registry,
	label string, at []simtime.Time) (busyChecks int) {
	t.Helper()
	for _, now := range at {
		e.RunUntil(now)
		reconcile(t, p, lp, reg, label+"/mid")
		for _, pc := range lp.seen {
			if pc.inFlight && !pc.c.dead {
				busyChecks++
				break
			}
		}
	}
	e.Run()
	reconcile(t, p, lp, reg, label+"/end")
	if p.LiveContainers() != 0 {
		t.Fatalf("%s: %d containers alive after drain", label, p.LiveContainers())
	}
	if p.NodeLocalBytes() != 0 || p.NodeRemoteBytes() != 0 || p.Pool().Used() != 0 {
		t.Fatalf("%s: residual memory after drain: local=%d remote=%d pool=%d",
			label, p.NodeLocalBytes(), p.NodeRemoteBytes(), p.Pool().Used())
	}
	return busyChecks
}

func randomProfile(rng *rand.Rand) *workload.Profile {
	patterns := []workload.PatternKind{workload.FixedHot, workload.FullScan, workload.ParetoObjects}
	p := &workload.Profile{
		Name:            "rnd",
		Language:        workload.Python,
		CPUShare:        0.1,
		RuntimeBytes:    int64(1+rng.Intn(8)) * workload.MB,
		RuntimeHotBytes: int64(rng.Intn(2)) * workload.MB,
		InitBytes:       int64(rng.Intn(8)) * workload.MB,
		Pattern:         patterns[rng.Intn(len(patterns))],
		ExecBytes:       int64(rng.Intn(3)) * workload.MB,
		ExecTime:        time.Duration(10+rng.Intn(200)) * time.Millisecond,
		InitTime:        time.Duration(50+rng.Intn(500)) * time.Millisecond,
		LaunchTime:      time.Duration(50+rng.Intn(500)) * time.Millisecond,
		QuotaBytes:      64 * workload.MB,
	}
	p.InitHotBytes = p.InitBytes / int64(1+rng.Intn(3))
	if p.Pattern == workload.ParetoObjects {
		p.Objects = 1 + rng.Intn(20)
		p.ObjectsPerRequest = 1 + rng.Intn(4)
	}
	if p.Pattern == workload.FixedHot && p.InitBytes > p.InitHotBytes {
		p.JitterBytes = int64(rng.Intn(2)) * workload.MB
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestAccountingInvariantsAcrossPolicies(t *testing.T) {
	policies := map[string]func() policy.Policy{
		"baseline": func() policy.Policy { return policy.NoOffload{} },
		"tmo":      func() policy.Policy { return policy.NewTMO(policy.TMOConfig{}) },
		"damon":    func() policy.Policy { return policy.NewDAMON(policy.DAMONConfig{}) },
		"faasmem": func() policy.Policy {
			return core.New(core.Config{FallbackSemiWarmDelay: 20 * time.Second})
		},
		"faasmem-coldstart-aware": func() policy.Policy {
			return core.New(core.Config{FallbackSemiWarmDelay: 20 * time.Second, ColdStartAwareTiming: true})
		},
	}
	for name, mk := range policies {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			busy := 0
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				e := simtime.NewEngine()
				lp := &ledgerProbe{Policy: mk()}
				reg := telemetry.NewRegistry()
				p := New(e, Config{
					KeepAliveTimeout: 90 * time.Second,
					Seed:             seed,
					Telemetry:        telemetry.Hub{Reg: reg},
				}, lp)
				var arrivals []simtime.Time
				nFns := 1 + rng.Intn(4)
				for i := 0; i < nFns; i++ {
					prof := randomProfile(rng)
					prof.Name = prof.Name + string(rune('a'+i))
					fn := trace.GenerateFunction(prof.Name, 5*time.Minute,
						time.Duration(5+rng.Intn(40))*time.Second, rng.Intn(2) == 0, seed*17+int64(i))
					if len(fn.Invocations) == 0 {
						continue
					}
					p.Register(prof.Name, prof)
					p.ScheduleInvocations(prof.Name, fn.Invocations)
					arrivals = append(arrivals, fn.Invocations...)
				}
				if len(arrivals) == 0 {
					continue
				}
				at := checkInstants(rand.New(rand.NewSource(seed)), arrivals, 12, 2*time.Second)
				busy += runReconciled(t, e, p, lp, reg, name, at)
			}
			if busy == 0 {
				t.Error("no mid-run check found a container mid-request")
			}
		})
	}
}

// TestAccountingInvariantsUnderFaults reconciles the books with every
// remote-memory feature on at once: a memory node merging runtime pages
// across functions, write-hot runtime pages breaking those merges, swap
// readahead, a node memory limit and pool crashes. With the swap fallback
// a timed-out fetch is served from the local copy; without it the request
// forces a cold re-init, which recycles its container mid-request.
func TestAccountingInvariantsUnderFaults(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		name := "reinit"
		if fallback {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			var rec RecoveryStats
			var busy, evicted, cluster int
			var breaks, breakRecalls int64
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				swap := SwapConfig{ReadaheadPages: 4}
				if fallback {
					swap.FallbackReadLatency = 50 * time.Microsecond
				}
				// Two crash windows overlap the invocation burst, so requests
				// that find their container offloaded time out their fetch.
				plan := faultinject.FromWindows([]faultinject.Window{
					{Kind: faultinject.PoolCrash, Start: simtime.Time(8 * time.Second), End: simtime.Time(14 * time.Second)},
					{Kind: faultinject.PoolCrash, Start: simtime.Time(22 * time.Second), End: simtime.Time(26 * time.Second)},
				})
				const pageB = int64(pagemem.DefaultPageSize)
				e := simtime.NewEngine()
				lp := &ledgerProbe{Policy: offloadAllPolicy{}}
				reg := telemetry.NewRegistry()
				p := New(e, Config{
					KeepAliveTimeout: time.Duration(4+rng.Intn(6)) * time.Second,
					NodeID:           "n0",
					NodeMemoryLimit:  int64(2+rng.Intn(3)) * workload.MB,
					Pool: rmem.Config{
						// A small node rejects some offloads and has no room
						// for some private copies on a write break.
						Node: &memnode.Config{
							DRAMBytes:          int64(300+rng.Intn(400)) * pageB,
							SpillBytes:         pageB,
							DisableCompression: true,
							MergeScope:         memnode.MergeTenant,
							TenantOf:           func(string) string { return "t0" },
						},
						Faults: plan,
					},
					Swap:      swap,
					Seed:      seed,
					Telemetry: telemetry.Hub{Reg: reg},
				}, lp)
				var arrivals []simtime.Time
				for _, fn := range []string{"fa", "fb", "fc"} {
					prof := *tinyProfile()
					prof.Name = fn
					prof.RuntimeWriteRatio = 0.1 + 0.4*rng.Float64()
					p.Register(fn, &prof)
					var times []simtime.Time
					for i, n := 0, 10+rng.Intn(15); i < n; i++ {
						times = append(times, simtime.Time(rng.Int63n(int64(30*time.Second))))
					}
					p.ScheduleInvocations(fn, times)
					arrivals = append(arrivals, times...)
				}
				busy += runReconciled(t, e, p, lp, reg, name, checkInstants(rng, arrivals, 12, time.Second))
				rec.Add(p.Recovery())
				evicted += p.EvictedContainers()
				cluster += int(reg.Counter("faasmem_swap_cluster_reads_total", "").Value())
				for _, f := range p.Functions() {
					breaks += f.Stats().WriteBreakPages
					breakRecalls += f.Stats().WriteBreakRecallPages
				}
			}
			// The seeds must exercise the paths under test. They are
			// deterministic, so a failure here means the workload went
			// quiet, not flakiness.
			for _, c := range []struct {
				what string
				n    int64
			}{
				{"check found a container mid-request", int64(busy)},
				{"container was evicted for the node memory limit", int64(evicted)},
				{"fault pulled a readahead cluster", int64(cluster)},
				{"write broke a merged runtime page", breaks},
				{"write break recalled a page the node had no room to copy", breakRecalls},
				{"fetch timed out", rec.FetchTimeouts},
			} {
				if c.n == 0 {
					t.Errorf("no %s", c.what)
				}
			}
			if fallback && rec.FallbackPages == 0 {
				t.Error("no fault was served from the swap fallback")
			}
			if !fallback && rec.ColdReinits == 0 {
				t.Error("no container was cold re-initialized mid-request")
			}
		})
	}
}

func TestLatencyNeverBelowExecTime(t *testing.T) {
	// Whatever faults occur, a request can never complete faster than its
	// base execution time.
	e := simtime.NewEngine()
	p := New(e, Config{KeepAliveTimeout: time.Minute, Seed: 9},
		core.New(core.Config{FallbackSemiWarmDelay: 5 * time.Second}))
	prof := tinyProfile()
	f := p.Register("t", prof)
	fn := trace.GenerateFunction("t", 5*time.Minute, 15*time.Second, true, 5)
	p.ScheduleInvocations("t", fn.Invocations)
	e.Run()
	if f.Stats().Requests == 0 {
		t.Skip("no requests generated")
	}
	if min := f.Stats().Latency.Percentile(0); min < prof.ExecTime.Seconds() {
		t.Fatalf("min latency %.4fs below exec time %.4fs", min, prof.ExecTime.Seconds())
	}
}

func TestStartKindAccountingInvariant(t *testing.T) {
	// cold + warm + semi-warm always equals completed requests, whatever the
	// policy and workload shape.
	for seed := int64(10); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := simtime.NewEngine()
		p := New(e, Config{KeepAliveTimeout: time.Minute, Seed: seed},
			core.New(core.Config{FallbackSemiWarmDelay: 10 * time.Second}))
		prof := randomProfile(rng)
		prof.Name = "inv"
		fn := trace.GenerateFunction("inv", 4*time.Minute, 8*time.Second, true, seed)
		if len(fn.Invocations) == 0 {
			continue
		}
		f := p.Register("inv", prof)
		p.ScheduleInvocations("inv", fn.Invocations)
		e.Run()
		st := f.Stats()
		if got := st.ColdStarts + st.WarmStarts + st.SemiWarmStarts; got != st.Requests {
			t.Fatalf("seed %d: start kinds %d != requests %d", seed, got, st.Requests)
		}
		if st.Latency.Count() != st.Requests {
			t.Fatalf("seed %d: latency samples %d != requests %d", seed, st.Latency.Count(), st.Requests)
		}
	}
}

func TestFaultsNeverExceedOffloadedPages(t *testing.T) {
	// A page can only fault back after having been offloaded, so cumulative
	// recall traffic is bounded by cumulative offload traffic.
	e := simtime.NewEngine()
	p := New(e, Config{KeepAliveTimeout: time.Minute, Seed: 3},
		core.New(core.Config{FallbackSemiWarmDelay: 5 * time.Second}))
	p.Register("t", tinyProfile())
	fn := trace.GenerateFunction("t", 5*time.Minute, 10*time.Second, true, 3)
	p.ScheduleInvocations("t", fn.Invocations)
	e.Run()
	out := p.Pool().Meter(rmem.Offload).Total()
	in := p.Pool().Meter(rmem.Recall).Total()
	if in > out {
		t.Fatalf("recalled %d bytes > offloaded %d bytes", in, out)
	}
}
