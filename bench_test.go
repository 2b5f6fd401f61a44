package faasmem

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation, each regenerating its experiment at a reduced scale
// (use cmd/experiments for the paper-scale runs), plus ablation benches for
// the design choices DESIGN.md calls out: the Pucket segment policies, the
// semi-warm period, the fault pipeline depth, and the barrier/rollback
// primitives themselves.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/exemplar"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// ---------------------------------------------------------------- figures

func BenchmarkFig1KeepAliveSweep(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{NumFunctions: 100, Duration: 4 * time.Hour}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(experiments.Fig1Options{Trace: tr, Seed: 1})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig2DamonLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2(experiments.Fig2Options{
			Duration: 10 * time.Minute,
			MeanGap:  30 * time.Second,
			Benches:  []string{"json", "web"},
			Seed:     int64(i),
		})
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig4RuntimeFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig4(); len(rows) != 6 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig5RequestsPerContainer(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{NumFunctions: 100, Duration: 4 * time.Hour}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(experiments.Fig5Options{Trace: tr})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig6BertScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(experiments.Fig6Options{Requests: 10, Seed: int64(i)})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig8RuntimeRecalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(experiments.Fig8Options{Requests: 5, Seed: int64(i)})
		if len(rows) != 11 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig9WebScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(25, int64(i))
		if len(rows) != 25 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig12AzureHighLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(experiments.Fig12Options{
			Duration: 8 * time.Minute,
			Benches:  []string{"web", "json"},
			Seed:     int64(i),
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig12AzureLowLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(experiments.Fig12Options{
			Duration: 8 * time.Minute,
			Benches:  []string{"graph"},
			Policies: []experiments.PolicyKind{experiments.Baseline, experiments.FaaSMem},
			Seed:     int64(i),
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable1DiverseTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(experiments.Table1Options{
			Duration: 6 * time.Minute,
			Traces:   2,
			Seed:     int64(i),
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig13Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(experiments.Fig13Options{
			Duration: 8 * time.Minute,
			Seed:     int64(i),
		})
		if len(rows) != 8 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig14SemiWarmApplicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14(experiments.Fig14Options{
			NumFunctions: 50,
			Duration:     2 * time.Hour,
			Seed:         int64(i),
		})
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig15BarrierInsert(b *testing.B) {
	prof := workload.Bert()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		space := pagemem.NewSpace(pagemem.DefaultPageSize)
		space.AllocBytes(pagemem.SegRuntime, prof.RuntimeBytes)
		space.AllocBytes(pagemem.SegInit, prof.InitBytes)
	}
}

func BenchmarkFig15Rollback(b *testing.B) {
	prof := workload.Bert()
	space := pagemem.NewSpace(pagemem.DefaultPageSize)
	space.AllocBytes(pagemem.SegRuntime, prof.RuntimeBytes)
	pucket := core.Pucket{Seg: space.AllocBytes(pagemem.SegInit, prof.InitBytes)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Promote the hot set, then roll it back.
		hot := pucket.Seg.Start + pagemem.PageID(prof.InitHotBytes/int64(space.PageSize()))
		space.MoveRange(pagemem.Range{Start: pucket.Seg.Start, End: hot}, pagemem.Inactive, pagemem.Hot)
		pucket.Rollback(space)
	}
}

func BenchmarkFig15Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig15()
		if len(rows) != 11 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFig16Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig16(experiments.Fig16Options{
			Traces:   3,
			Duration: 6 * time.Minute,
			Apps:     []string{"graph", "web"},
			Seed:     int64(i),
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationFaultPipeline sweeps the swap path's fault pipeline depth
// — the design choice that sets how painful a semi-warm or DAMON-drained
// container's first request is.
func BenchmarkAblationFaultPipeline(b *testing.B) {
	prof := workload.Web()
	inv := experiments.HighLoadInvocations(6*time.Minute, 3)
	for i := 0; i < b.N; i++ {
		out := experiments.RunScenario(experiments.Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    6 * time.Minute,
			Policy:      experiments.DAMON,
			Seed:        3,
		})
		if out.Requests == 0 {
			b.Fatal("no requests")
		}
	}
}

// BenchmarkAblationPolicies runs the same workload under each policy so the
// relative simulation cost (and offloading work) of the policies is visible.
func BenchmarkAblationPolicies(b *testing.B) {
	prof := workload.ByName("json")
	inv := experiments.HighLoadInvocations(6*time.Minute, 4)
	for _, pk := range []experiments.PolicyKind{
		experiments.Baseline, experiments.TMO, experiments.DAMON, experiments.FaaSMem,
	} {
		b.Run(string(pk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := experiments.RunScenario(experiments.Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    6 * time.Minute,
					Policy:      pk,
					SeedHistory: true,
					Seed:        4,
				})
				if out.Requests == 0 {
					b.Fatal("no requests")
				}
			}
		})
	}
}

// ---------------------------------------------------------------- fast path

// benchRNG is a splitmix-style LCG so the engine microbenches draw the same
// delay sequence every run without importing math/rand.
type benchRNG uint64

func (r *benchRNG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// BenchmarkEngineSchedule measures the schedule+cancel path of the timer-wheel
// event engine at a steady depth of 1e5 pending events: each iteration cancels
// one in-flight event and schedules a replacement at a pseudorandom future
// time, so the wheel stays full and the free-list pool absorbs every event.
func BenchmarkEngineSchedule(b *testing.B) {
	const pending = 100_000
	e := simtime.NewEngine()
	nop := func(*simtime.Engine) {}
	rng := benchRNG(1)
	at := func() simtime.Time { return e.Now() + simtime.Time(1+rng.next()%(1<<32)) }
	handles := make([]simtime.Handle, pending)
	for i := range handles {
		handles[i] = e.At(at(), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := int(rng.next() % pending)
		e.Cancel(handles[slot])
		handles[slot] = e.At(at(), nop)
	}
	b.StopTimer()
	if e.Pending() != pending {
		b.Fatalf("pending = %d, want %d", e.Pending(), pending)
	}
}

// BenchmarkEngineTimerWheel measures steady-state firing: 1e5 self-
// rescheduling timers churn through the wheel, so every Step drains a slot,
// fires one event, and re-places it — the cascade, bitmap scan, and pool
// reuse paths all stay hot, exactly like a dense simulation mid-run.
func BenchmarkEngineTimerWheel(b *testing.B) {
	const pending = 100_000
	e := simtime.NewEngine()
	rng := benchRNG(99)
	delay := func() simtime.Time { return simtime.Time(1 + rng.next()%(1<<22)) }
	var tick simtime.Func
	tick = func(e *simtime.Engine) { e.After(delay(), tick) }
	for i := 0; i < pending; i++ {
		e.At(delay(), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine drained")
		}
	}
	b.StopTimer()
	if e.Pending() != pending {
		b.Fatalf("pending = %d, want %d", e.Pending(), pending)
	}
}

// BenchmarkPucketOffloadScan measures the victim count behind
// Pucket.OffloadInactive: the Prefix walk over a mostly-offloaded
// Bert-sized segment's inactive pages, without a budget. One inactive page
// in 64 makes two runs per 64 pages, so the walk steps once per run.
func BenchmarkPucketOffloadScan(b *testing.B) {
	prof := workload.Bert()
	space := pagemem.NewSpace(pagemem.DefaultPageSize)
	seg := space.AllocBytes(pagemem.SegInit, prof.InitBytes)
	// Leave every 64th page inactive; the rest are already remote.
	for id := seg.Start; id < seg.End; id += 64 {
		space.MoveRange(pagemem.Range{Start: id + 1, End: min(id+64, seg.End)}, pagemem.Inactive, pagemem.Remote)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := space.Prefix(seg, pagemem.Inactive, 0); n == 0 {
			b.Fatal("no victims")
		}
	}
}

// BenchmarkSemiWarmScan measures the semi-warm tick's victim count: the
// Prefix holding a budget of 256 hot pages, sought in a Bert-sized init
// range that is already all remote except its last 64-page word, which is
// hot. The remote majority is one run, so the walk steps over it at once.
func BenchmarkSemiWarmScan(b *testing.B) {
	prof := workload.Bert()
	space := pagemem.NewSpace(pagemem.DefaultPageSize)
	seg := space.AllocBytes(pagemem.SegInit, prof.InitBytes)
	last := pagemem.PageID((int(seg.End) - 1) / 64 * 64)
	space.MoveRange(pagemem.Range{Start: seg.Start, End: last}, pagemem.Inactive, pagemem.Remote)
	space.MoveRange(pagemem.Range{Start: last, End: seg.End}, pagemem.Inactive, pagemem.Hot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := space.Prefix(seg, pagemem.Hot, 256); n == 0 {
			b.Fatal("no victims")
		}
	}
}

// BenchmarkSeedReuseIntervals seeds one function's reuse history from a
// 100k-interval offline trace analysis, in the unsorted order a trace yields
// them. Only the last HistoryLimit intervals can survive the trim, so the
// cost is bounded by the limit rather than by the trace's length.
func BenchmarkSeedReuseIntervals(b *testing.B) {
	iv := make([]time.Duration, 100_000)
	for i := range iv {
		iv[i] = time.Duration(i*7919%100_003) * time.Millisecond
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(core.Config{}).SeedReuseIntervals("f", iv)
	}
}

// BenchmarkHarnessParallelFanout runs the same 8-scenario grid through the
// experiment harness's worker pool at width 1 and at GOMAXPROCS, verifying
// the fan-out path and exposing its scaling on multi-core hosts.
func BenchmarkHarnessParallelFanout(b *testing.B) {
	prof := workload.ByName("json")
	inv := experiments.HighLoadInvocations(6*time.Minute, 9)
	scs := make([]experiments.Scenario, 8)
	for i := range scs {
		scs[i] = experiments.Scenario{
			Profile:     prof,
			Invocations: inv,
			Duration:    6 * time.Minute,
			Policy:      experiments.FaaSMem,
			SeedHistory: true,
			Seed:        int64(i),
		}
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		// Names avoid a trailing "-N": that's go test's GOMAXPROCS suffix,
		// which cmd/benchjson strips for cross-machine key stability.
		{"serial", 1},
		{"maxprocs", 0}, // 0 restores the GOMAXPROCS default
	} {
		b.Run(cfg.name, func(b *testing.B) {
			experiments.SetWorkers(cfg.workers)
			defer experiments.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				outs := experiments.RunScenarios(scs)
				if len(outs) != len(scs) || outs[0].Requests == 0 {
					b.Fatal("bad outcomes")
				}
			}
		})
	}
}

// BenchmarkDisabledSpans runs one scenario with span recording off (the
// default for every figure) and on: the nil-recorder fast path must keep the
// hot exec loop's cost and allocation profile indistinguishable from
// pre-span builds. internal/telemetry/span asserts the per-call zero-alloc
// contract; this gate watches the end-to-end run.
func BenchmarkDisabledSpans(b *testing.B) {
	prof := workload.ByName("json")
	inv := experiments.HighLoadInvocations(6*time.Minute, 11)
	for _, cfg := range []struct {
		name string
		rec  *span.Recorder
	}{
		{"disabled", nil},
		{"enabled", span.NewRecorder(1 << 12)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := experiments.RunScenario(experiments.Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    6 * time.Minute,
					Policy:      experiments.FaaSMem,
					CoreConfig:  core.Config{},
					SeedHistory: true,
					Seed:        11,
					Telemetry:   telemetry.Hub{Spans: cfg.rec},
				})
				if out.Requests == 0 {
					b.Fatal("no requests")
				}
			}
		})
	}
}

// BenchmarkDisabledTimeline is BenchmarkDisabledSpans for the time-series
// recorder: with no recorder attached (every figure's default) the per-window
// sampling ticker is never armed and every hot-path hook is one nil check, so
// the run must match pre-timeline builds; the enabled case bounds what
// -timeline costs.
func BenchmarkDisabledTimeline(b *testing.B) {
	prof := workload.ByName("json")
	inv := experiments.HighLoadInvocations(6*time.Minute, 11)
	for _, cfg := range []struct {
		name string
		make func() *timeseries.Recorder
	}{
		{"disabled", func() *timeseries.Recorder { return nil }},
		{"enabled", func() *timeseries.Recorder { return timeseries.NewRecorder(timeseries.Config{}) }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := experiments.RunScenario(experiments.Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    6 * time.Minute,
					Policy:      experiments.FaaSMem,
					CoreConfig:  core.Config{},
					SeedHistory: true,
					Seed:        11,
					Telemetry:   telemetry.Hub{Timeline: cfg.make()},
				})
				if out.Requests == 0 {
					b.Fatal("no requests")
				}
			}
		})
	}
}

// BenchmarkDisabledExemplars is BenchmarkDisabledTimeline for the
// tail-exemplar recorder: with no recorder attached the completion path pays
// one nil check and never builds span trees, so the run must match
// pre-exemplar builds; the enabled case bounds what -exemplars costs
// (bounded worst-K retention per window cell).
func BenchmarkDisabledExemplars(b *testing.B) {
	prof := workload.ByName("json")
	inv := experiments.HighLoadInvocations(6*time.Minute, 11)
	for _, cfg := range []struct {
		name string
		make func() *exemplar.Recorder
	}{
		{"disabled", func() *exemplar.Recorder { return nil }},
		{"enabled", func() *exemplar.Recorder { return exemplar.NewRecorder(exemplar.Config{}) }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := experiments.RunScenario(experiments.Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    6 * time.Minute,
					Policy:      experiments.FaaSMem,
					CoreConfig:  core.Config{},
					SeedHistory: true,
					Seed:        11,
					Telemetry:   telemetry.Hub{Exemplars: cfg.make()},
				})
				if out.Requests == 0 {
					b.Fatal("no requests")
				}
			}
		})
	}
}

// ---------------------------------------------------------------- substrate

// BenchmarkTouchHotSet measures the page-touch hot path that dominates
// request replay (one Bert-sized hot-set touch): the bulk access-bit set and
// the Inactive → Hot promotion of a request span.
func BenchmarkTouchHotSet(b *testing.B) {
	prof := workload.Bert()
	space := pagemem.NewSpace(pagemem.DefaultPageSize)
	r := space.AllocBytes(pagemem.SegInit, prof.InitHotBytes)
	b.SetBytes(prof.InitHotBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.TouchRange(r)
		space.MoveRange(r, pagemem.Inactive, pagemem.Hot)
	}
}

// BenchmarkTraceGeneration measures synthesizing a full Azure-like day.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(trace.GenConfig{NumFunctions: 100, Duration: 6 * time.Hour}, int64(i))
		if tr.TotalInvocations() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// ---------------------------------------------------------------- extensions

// BenchmarkExtPoolComparison regenerates the §9 pool-technology study.
func BenchmarkExtPoolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.PoolComparison(experiments.PoolComparisonOptions{
			Duration: 6 * time.Minute, Seed: int64(i),
		})
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkExtColdStartTiming regenerates the §8.3.2 timing-correction study.
func BenchmarkExtColdStartTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ColdStartTiming(experiments.ColdStartTimingOptions{
			Duration: 6 * time.Minute, Seed: int64(i),
		})
		if len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkExtRackDensity regenerates the measured-density rack study.
func BenchmarkExtRackDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RackDensity(experiments.RackDensityOptions{
			Nodes: 2, Functions: 6, Duration: 6 * time.Minute, Seed: int64(i),
		})
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkPoolDensity regenerates the memory-node capacity sweep: the mixed
// workload over off/dedup/dedup+zswap modes at one DRAM size.
func BenchmarkPoolDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.PoolDensity(experiments.PoolDensityOptions{
			DRAMMBs: []int{192}, Duration: 4 * time.Minute, Seed: int64(i),
		})
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkSharedRegionMap measures the shared-region hot path: mapping and
// unmapping a 64 MB pool-resident region (refcount bookkeeping plus the
// demand-fetch pricing of ShareRead) without advancing virtual time.
func BenchmarkSharedRegionMap(b *testing.B) {
	e := simtime.NewEngine()
	pool := rmem.NewPool(rmem.Config{Node: &memnode.Config{}})
	m := sharedmem.New(sharedmem.Config{PageSize: 4096, Pool: pool})
	if _, _, err := m.Create(e.Now(), "r", "t", 64<<20); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(e.Now(), "r"); err != nil {
			b.Fatal(err)
		}
		if err := m.Unmap(e.Now(), "r"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAGPipeline runs the ETL pipeline workflow end to end with
// pool-backed state passing: four chained stages, region create/map/release
// per hop, dependency-ready scheduling through the platform.
func BenchmarkDAGPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := experiments.RunWorkflowCell(experiments.StatefulOptions{
			Runs: 2, Seed: int64(i),
		}, "pipeline", true, 0, 0)
		if row.Completed != 2 || !row.Drained {
			b.Fatalf("bad run: %+v", row)
		}
	}
}

// BenchmarkMemnodeOffload measures the page-store hot path: described
// offloads from a rotating set of containers into a node under DRAM pressure
// (dedup lookups, LRU maintenance, compression/spill demotion), then a full
// per-owner discard.
func BenchmarkMemnodeOffload(b *testing.B) {
	node := memnode.New(memnode.Config{DRAMBytes: 64 << 20, SpillBytes: 256 << 20})
	owners := make([]string, 16)
	for i := range owners {
		owners[i] = fmt.Sprintf("c%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := owners[i%len(owners)]
		node.Offload(o, "fn", memnode.ClassInit, 512)
		node.Offload(o, "fn", memnode.ClassRuntime, 1024)
		node.Offload(o, "fn", memnode.ClassExec, 256)
		if i%len(owners) == len(owners)-1 {
			for _, ow := range owners {
				node.DiscardOwner(ow)
			}
		}
	}
}

// BenchmarkMergeLookup measures the merge-domain hot path at steady state:
// dedup-hit offloads from two functions of one tenant land on the same
// tenant-wide master, and the recalls that hand the pages back are served by
// the shared cache tier. Gate: 0 allocs/op — the domain memo, the refcount
// bookkeeping, and the cache-hit path must all stay allocation-free.
func BenchmarkMergeLookup(b *testing.B) {
	node := memnode.New(memnode.Config{
		MergeScope: memnode.MergeTenant,
		TenantOf:   func(fn string) string { return fn[:1] },
		CacheBytes: 64 << 20,
	})
	fns := [2]string{"t1", "t2"} // same first-letter tenant: one merge domain
	var loopOwners [2]string
	for i, fn := range fns {
		// Anchors pin the master's size so the benchmarked recalls never
		// resize it, and a first read admits the master to the cache.
		node.Offload(fn+"#a", fn, memnode.ClassRuntime, 192)
		loopOwners[i] = fn + "#b"
		node.Offload(loopOwners[i], fn, memnode.ClassRuntime, 64)
	}
	node.ReadCost("t1#a", "t1", memnode.ClassRuntime, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn := fns[i%2]
		owner := loopOwners[i%2]
		if got := node.Offload(owner, fn, memnode.ClassRuntime, 64); got != 64 {
			b.Fatalf("offload accepted %d of 64", got)
		}
		if out := node.Recall(owner, fn, memnode.ClassRuntime, 64); out.Pages != 64 || out.Latency != 0 {
			b.Fatalf("recall = %+v, want 64 pages from cache", out)
		}
	}
	b.StopTimer()
	if node.MergedPages() == 0 {
		b.Fatal("loop never exercised the widened-domain merge path")
	}
	if err := node.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationRequestWindow compares §5.2's adaptive request-window
// against fixed windows on the Web workload: a window of 1 offloads cold
// init pages eagerly (recalling the Pareto tail), a large fixed window
// strands memory, and the adaptive detector lands between them.
func BenchmarkAblationRequestWindow(b *testing.B) {
	prof := workload.Web()
	inv := experiments.HighLoadInvocations(6*time.Minute, 7)
	for _, cfg := range []struct {
		name  string
		fixed int
	}{
		{"adaptive", 0},
		{"fixed-1", 1},
		{"fixed-20", 20},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := experiments.RunScenario(experiments.Scenario{
					Profile:     prof,
					Invocations: inv,
					Duration:    6 * time.Minute,
					Policy:      experiments.FaaSMem,
					CoreConfig:  core.Config{FixedRequestWindow: cfg.fixed, DisableSemiWarm: true},
					Seed:        7,
				})
				if out.Requests == 0 {
					b.Fatal("no requests")
				}
				b.ReportMetric(out.AvgLocalMB, "avgMB")
				b.ReportMetric(float64(out.FaultPages), "faults")
			}
		})
	}
}
