package cluster

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

func testProfile() *workload.Profile {
	return &workload.Profile{
		Name:            "t",
		Language:        workload.Python,
		CPUShare:        0.1,
		RuntimeBytes:    2 * workload.MB,
		RuntimeHotBytes: 512 * 1024,
		InitBytes:       1 * workload.MB,
		InitHotBytes:    256 * 1024,
		Pattern:         workload.FixedHot,
		ExecBytes:       256 * 1024,
		ExecTime:        100 * time.Millisecond,
		InitTime:        100 * time.Millisecond,
		LaunchTime:      100 * time.Millisecond,
		QuotaBytes:      8 * workload.MB,
	}
}

func secs(vals ...float64) []simtime.Time {
	out := make([]simtime.Time, len(vals))
	for i, v := range vals {
		out[i] = simtime.Time(v * float64(time.Second))
	}
	return out
}

func baselineFactory() policy.Policy { return policy.NoOffload{} }

func TestDefaultRackSize(t *testing.T) {
	c := New(simtime.NewEngine(), Config{}, baselineFactory)
	if len(c.Nodes()) != 10 {
		t.Fatalf("nodes = %d, want 10", len(c.Nodes()))
	}
}

func TestWarmFirstPrefersIdleContainer(t *testing.T) {
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 3,
		Node: faas.Config{KeepAliveTimeout: 10 * time.Minute}}, baselineFactory)
	c.Register("t", testProfile())
	// First request cold-starts somewhere; the second (after completion)
	// must reuse that same container rather than starting a new node.
	c.ScheduleInvocations("t", secs(0, 5, 10, 15))
	e.RunUntil(time.Minute)
	created := 0
	for _, n := range c.Nodes() {
		created += n.ContainersCreated()
	}
	if created != 1 {
		t.Fatalf("containers created = %d, want 1 (warm reuse across rack)", created)
	}
	st := c.Stats()
	if st.ColdStarts != 1 || st.WarmStarts != 3 {
		t.Fatalf("cold/warm = %d/%d, want 1/3", st.ColdStarts, st.WarmStarts)
	}
}

// TestScheduleUnregisteredPanics checks that scheduling an unknown
// function fails at once, before the run counts a submission for it.
func TestScheduleUnregisteredPanics(t *testing.T) {
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 2}, baselineFactory)
	c.Register("t", testProfile())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ScheduleInvocations of an unregistered function did not panic")
			}
		}()
		c.ScheduleInvocations("ghost", secs(0, 1))
	}()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the refused schedule, want 0", e.Pending())
	}
	e.Run()
	if st := c.Stats(); st.Submitted != 0 {
		t.Fatalf("submitted = %d, want 0", st.Submitted)
	}
}

// checkOneContainerPerNode fails unless every node of c launched exactly one
// container, so a test's load really spread across the rack.
func checkOneContainerPerNode(t *testing.T, c *Cluster) {
	t.Helper()
	for i, n := range c.Nodes() {
		if n.ContainersCreated() != 1 {
			t.Fatalf("node %d created %d containers, want 1", i, n.ContainersCreated())
		}
	}
}

func TestSharedPoolAccounting(t *testing.T) {
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 2,
		Node: faas.Config{KeepAliveTimeout: 10 * time.Minute}},
		func() policy.Policy {
			return core.New(core.Config{DisableSemiWarm: true})
		})
	c.Register("t", testProfile())
	// The second request arrives while the first is initializing, with its
	// runtime resident, so it cold-starts on the other node; the later pair
	// reuses both containers.
	c.ScheduleInvocations("t", secs(0, 0.15, 3, 3.01))
	e.RunUntil(30 * time.Second)
	checkOneContainerPerNode(t, c)
	// Both nodes' runtime puckets offloaded into the one pool.
	var remote int64
	for _, n := range c.Nodes() {
		remote += n.NodeRemoteBytes()
	}
	if remote == 0 {
		t.Fatal("no offloading happened")
	}
	if got := c.Pool().Used(); got != remote {
		t.Fatalf("pool used %d != rack remote %d", got, remote)
	}
}

func TestNodeMemoryLimitEvicts(t *testing.T) {
	e := simtime.NewEngine()
	// One node whose DRAM fits roughly two containers' base footprints.
	c := New(e, Config{Nodes: 1,
		Node: faas.Config{KeepAliveTimeout: 10 * time.Minute, NodeMemoryLimit: 8 * workload.MB}},
		baselineFactory)
	c.Register("t", testProfile())
	// Four overlapping requests force four containers (~15 MB total).
	c.ScheduleInvocations("t", secs(0, 0.01, 0.02, 0.03))
	e.RunUntil(30 * time.Second)
	n := c.Nodes()[0]
	if n.EvictedContainers() == 0 {
		t.Fatal("no evictions despite exceeding the node memory limit")
	}
	if got := n.NodeLocalBytes(); got > 8*workload.MB {
		t.Fatalf("node local %d exceeds limit after quiescence", got)
	}
}

func TestEvictionPrefersLongestIdle(t *testing.T) {
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 1,
		Node: faas.Config{KeepAliveTimeout: 10 * time.Minute, NodeMemoryLimit: 11 * workload.MB}},
		baselineFactory)
	c.Register("t", testProfile())
	// Three containers built over time (overlap), then a fourth demand
	// triggers eviction of the longest-idle one.
	c.ScheduleInvocations("t", secs(0, 0.01, 0.02, 20, 20.01, 20.02, 20.03))
	e.RunUntil(time.Minute)
	n := c.Nodes()[0]
	if n.EvictedContainers() == 0 {
		t.Fatal("expected evictions")
	}
	// The rack keeps serving: all requests completed.
	if got := c.Stats().Requests; got != 7 {
		t.Fatalf("requests = %d, want 7", got)
	}
}

func TestFaaSMemSustainsMoreContainersUnderLimit(t *testing.T) {
	// The density claim, measured: with the same DRAM limit, FaaSMem evicts
	// fewer containers and cold-starts less than the baseline.
	run := func(mk func() policy.Policy) Stats {
		e := simtime.NewEngine()
		c := New(e, Config{Nodes: 1,
			Node: faas.Config{KeepAliveTimeout: 5 * time.Minute, NodeMemoryLimit: 10 * workload.MB, Seed: 4}},
			mk)
		c.Register("t", testProfile())
		var inv []simtime.Time
		// Five concurrent lanes of periodic requests: five containers needed,
		// ~15 MB resident for the baseline vs ~5 MB for FaaSMem.
		for lane := 0; lane < 5; lane++ {
			for i := 0; i < 12; i++ {
				inv = append(inv, simtime.Time(lane*10)*simtime.Time(time.Millisecond)+simtime.Time(i*5)*simtime.Time(time.Second))
			}
		}
		c.ScheduleInvocations("t", inv)
		e.RunUntil(3 * time.Minute)
		return c.Stats()
	}
	base := run(baselineFactory)
	fm := run(func() policy.Policy {
		return core.New(core.Config{FallbackSemiWarmDelay: 30 * time.Second})
	})
	if fm.Evicted >= base.Evicted && base.Evicted > 0 {
		t.Errorf("FaaSMem evicted %d, baseline %d — offloading should relieve the limit",
			fm.Evicted, base.Evicted)
	}
	if fm.ColdStarts > base.ColdStarts {
		t.Errorf("FaaSMem cold starts %d exceed baseline %d", fm.ColdStarts, base.ColdStarts)
	}
}

func TestGreedyDualEvictionPrefersCheapLargeContainers(t *testing.T) {
	// Three functions: "precious" is slow to cold-start and small, and idles
	// longest; "cheap" is fast to rebuild and big; "filler" pushes the node
	// over its limit. Eviction is longest-idle first, so precious goes
	// although cheap frees more memory and costs less to rebuild.
	cheap := testProfile()
	cheap.Name = "cheap"
	cheap.RuntimeBytes = 6 * workload.MB
	cheap.LaunchTime = 50 * time.Millisecond
	cheap.InitTime = 50 * time.Millisecond
	precious := testProfile()
	precious.Name = "precious"
	precious.RuntimeBytes = 1 * workload.MB
	precious.LaunchTime = 2 * time.Second
	precious.InitTime = 2 * time.Second
	filler := testProfile()
	filler.Name = "filler"

	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 1, Node: faas.Config{
		KeepAliveTimeout: 10 * time.Minute,
		NodeMemoryLimit:  10 * workload.MB,
	}}, baselineFactory)
	c.Register("cheap", cheap)
	c.Register("precious", precious)
	c.Register("filler", filler)
	c.ScheduleInvocations("precious", secs(0)) // idles first
	c.ScheduleInvocations("cheap", secs(10))
	c.ScheduleInvocations("filler", secs(20)) // pushes over the limit
	e.RunUntil(time.Minute)
	n := c.Nodes()[0]
	if n.EvictedContainers() == 0 {
		t.Fatal("no eviction happened")
	}
	if n.Function("precious").IdleContainer() != nil {
		t.Fatal("eviction should have taken the longest-idle (precious) container")
	}
}

func TestReschedulingAvoidsStrappedNode(t *testing.T) {
	// Node 0 hosts an idle semi-warm-like container whose recall cannot fit
	// under its DRAM limit; the next request must cold-start on node 1
	// instead of thrashing node 0.
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 2,
		Node: faas.Config{
			KeepAliveTimeout: 10 * time.Minute,
			NodeMemoryLimit:  7 * workload.MB,
		}},
		func() policy.Policy {
			// Offload everything at idle, so reuse would recall ~3 MB.
			return core.New(core.Config{
				DisablePucket:         true,
				FallbackSemiWarmDelay: time.Second,
				PercentPerSecond:      1,
				BytesPerSecond:        64 * workload.MB,
			})
		})
	prof := testProfile()
	prof.Name = "t"
	c.Register("t", prof)
	// Filler keeps node 0 near its limit after the first container drains.
	filler := testProfile()
	filler.Name = "filler"
	filler.RuntimeBytes = 4 * workload.MB
	c.Register("filler", filler)

	c.ScheduleInvocations("t", secs(0))       // container on least-mem node (node 0)
	c.ScheduleInvocations("filler", secs(5))  // lands on node 1 (least memory)... then
	c.ScheduleInvocations("filler", secs(15)) // reuse keeps filler warm
	// By 30 s the "t" container is fully offloaded (semi-warm drained).
	c.ScheduleInvocations("t", secs(30))
	e.RunUntil(40 * time.Second)
	// The reuse either found headroom (no reschedule needed) or was
	// redirected; in both cases the node limits hold.
	for i, n := range c.Nodes() {
		if n.NodeLocalBytes() > 7*workload.MB {
			t.Fatalf("node %d exceeds its limit", i)
		}
	}
}

func TestReschedulingCountsRedirects(t *testing.T) {
	// Drive the §9 low-headroom case explicitly: the function's only warm
	// container sits on a node whose DRAM cannot absorb the recall while a
	// long-running filler executes there, and an empty node is available.
	// The warm reuse must be redirected and counted in Stats.Rescheduled.
	e := simtime.NewEngine()
	// The 8 MB limit admits a filler's ~7 MB execution without evicting the
	// drained container, but cannot also absorb its ~3 MB recall.
	c := New(e, Config{Nodes: 3,
		Node: faas.Config{
			KeepAliveTimeout: 10 * time.Minute,
			NodeMemoryLimit:  8 * workload.MB,
		}},
		func() policy.Policy {
			return core.New(core.Config{
				DisablePucket:         true,
				FallbackSemiWarmDelay: time.Second,
				PercentPerSecond:      1,
				BytesPerSecond:        64 * workload.MB,
			})
		})
	c.Register("t", testProfile())
	// Fillers run for a minute, pinning their exec pages locally.
	filler := testProfile()
	filler.Name = "filler"
	filler.ExecBytes = 4 * workload.MB
	filler.ExecTime = time.Minute
	c.Register("fa", filler)
	c.Register("fb", filler)

	c.ScheduleInvocations("fa", secs(0)) // node 0 (all-equal tie)
	c.ScheduleInvocations("t", secs(0.2))
	// By 5 s the t container has drained to remote, so node 1 is the
	// least-memory target again and fb lands beside it.
	c.ScheduleInvocations("fb", secs(5))
	// Reuse of t: node 1 cannot host local + ~3 MB of recall under the 8 MB
	// limit, but node 2 is empty — the request must be redirected there.
	c.ScheduleInvocations("t", secs(10))
	e.RunUntil(15 * time.Second)

	st := c.Stats()
	if st.Rescheduled == 0 {
		t.Fatalf("no reschedule counted; node locals = %d/%d/%d",
			c.Nodes()[0].NodeLocalBytes(), c.Nodes()[1].NodeLocalBytes(), c.Nodes()[2].NodeLocalBytes())
	}
	if c.Nodes()[2].ContainersCreated() == 0 {
		t.Fatal("redirected request did not cold-start on the empty node")
	}
	// Both t requests completed; the fillers are still mid-execution.
	if st.Requests != 2 {
		t.Fatalf("requests = %d, want 2", st.Requests)
	}
}

func TestRackSharesMemNode(t *testing.T) {
	// One pool-side memory node behind the rack: the same function's
	// containers on different compute nodes dedup their init/runtime pages
	// into one resident copy.
	e := simtime.NewEngine()
	c := New(e, Config{Nodes: 2,
		Node: faas.Config{KeepAliveTimeout: 10 * time.Minute},
		Pool: rmem.Config{Node: &memnode.Config{DRAMBytes: 64 * workload.MB}}},
		func() policy.Policy {
			return core.New(core.Config{DisableSemiWarm: true})
		})
	c.Register("t", testProfile())
	c.ScheduleInvocations("t", secs(0, 0.15, 3, 3.01)) // overlapping, as above
	e.RunUntil(30 * time.Second)
	checkOneContainerPerNode(t, c)

	st := c.Stats()
	if st.MemNode == nil {
		t.Fatal("rack stats missing memnode snapshot")
	}
	if st.MemNode.LogicalBytes == 0 {
		t.Fatal("no offloading reached the memory node")
	}
	if st.MemNode.DedupHitPages == 0 {
		t.Fatalf("no dedup across the rack's containers: %+v", *st.MemNode)
	}
	if st.MemNode.ResidentBytes >= st.MemNode.LogicalBytes {
		t.Fatalf("resident %d not below logical %d despite dedup",
			st.MemNode.ResidentBytes, st.MemNode.LogicalBytes)
	}
	// The pool's byte ledger still tracks the compute side's remote bytes.
	var remote int64
	for _, n := range c.Nodes() {
		remote += n.NodeRemoteBytes()
	}
	if got := c.Pool().Used(); got != remote {
		t.Fatalf("pool used %d != rack remote %d", got, remote)
	}
	if err := c.Pool().Node().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
