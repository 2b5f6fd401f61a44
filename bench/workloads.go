package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/gateway"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// layer names a boundary the benchmark times its calls across.
type layer int

const (
	layerGen    layer = iota // trace generators
	layerBuild               // faas.New / cluster.New / Register / ScheduleInvocations
	layerRun                 // Engine.RunUntil
	layerStats               // cluster Stats
	layerCheck               // memnode CheckInvariants
	layerExport              // gateway exporter GETs
	numLayers
)

// layerClock times and counts the benchmark's calls into each layer. It
// reads the clock only when on, so untraced runs pay one branch per
// boundary.
type layerClock struct {
	on    bool
	total [numLayers]time.Duration
	calls [numLayers]int
}

func (c *layerClock) start() time.Time {
	if !c.on {
		return time.Time{}
	}
	return time.Now()
}

func (c *layerClock) stop(l layer, t0 time.Time) {
	if c.on {
		c.total[l] += time.Since(t0)
		c.calls[l]++
	}
}

// counters are the simulated per-layer counts of one job. They are
// deterministic: the same job yields the same counters in every round.
type counters struct {
	requests, coldStarts, semiWarm int
	rollbacks, runtimeOffloads     int
	events, faultPages             int64
	offloadedMB, recalledMB        float64
	localMB                        float64 // time-weighted node-local memory
	p95Weighted                    float64 // Σ requests × simulated P95 (s)

	dedupHits, merged, unmergeBreaks int64
	cacheHits, cacheMisses, mnEvicts int64
	peakLogical, peakResident        int64
	rescheduled, evicted             int
	retries, timeouts, fallbacks     int64
	reinits                          int
}

func (c *counters) add(o counters) {
	c.requests += o.requests
	c.coldStarts += o.coldStarts
	c.semiWarm += o.semiWarm
	c.rollbacks += o.rollbacks
	c.runtimeOffloads += o.runtimeOffloads
	c.events += o.events
	c.faultPages += o.faultPages
	c.offloadedMB += o.offloadedMB
	c.recalledMB += o.recalledMB
	c.localMB += o.localMB
	c.p95Weighted += o.p95Weighted
	c.dedupHits += o.dedupHits
	c.merged += o.merged
	c.unmergeBreaks += o.unmergeBreaks
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.mnEvicts += o.mnEvicts
	c.peakLogical += o.peakLogical
	c.peakResident += o.peakResident
	c.rescheduled += o.rescheduled
	c.evicted += o.evicted
	c.retries += o.retries
	c.timeouts += o.timeouts
	c.fallbacks += o.fallbacks
	c.reinits += o.reinits
}

// digest hashes every simulated statistic of a job, so a change that only
// speeds the simulator up can show that none of them moved.
func (c *counters) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *c)
	return h.Sum64()
}

// result is what one job reports.
type result struct {
	counters
	err error // the first correctness check that failed
}

// A job is one unit of timed work: one scenario, one rack run, or one /run
// request. build constructs its platform (or request) and returns the
// function that runs it; running a job twice yields the same counters.
type job interface {
	build(lc *layerClock) (run func() result)
}

func runJob(j job, lc *layerClock) result { return j.build(lc)() }

// workloadDef describes one workload. setup generates the job list from the
// seed and builds anything the jobs share; size scales the list so that the
// timed phase does fixed work.
type workloadDef struct {
	name  string
	setup func(seed int64, size int, quick bool, lc *layerClock) ([]job, error)
	// unitCost is the reference-host time of one unit of size, one round.
	unitCost time.Duration
}

var workloads = []workloadDef{
	{name: "node-grid", setup: setupNodeGrid, unitCost: 380 * time.Millisecond},
	{name: "rack-merge", setup: rackSetup(0), unitCost: 45 * time.Millisecond},
	{name: "rack-write", setup: rackSetup(0.3), unitCost: 45 * time.Millisecond},
	{name: "gateway-observed", setup: setupGateway, unitCost: 56 * time.Millisecond},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// subSeed derives the i-th seed of a run from its -seed. It is never 0,
// which the gateway would replace with its default seed.
func subSeed(seed int64, i int) int64 {
	return int64(mix(uint64(seed)*0x9e3779b97f4a7c15+uint64(i))>>2) + 1
}

// traceSeed is the seed of the i-th arrival trace. The traces come from one
// fixed library, whatever the -seed: a bursty trace's size and burst pattern
// move a run's simulated statistics and cost by tens of percent from one
// seed to the next, far more than any change a run should detect. On the
// node and the rack, -seed drives the simulator's own randomness instead
// (which pages each request touches, container placement).
func traceSeed(i int) int64 { return subSeed(0, i) }

// ---------------------------------------------------------------- node-grid

// gridBenches and gridPolicies span the Fig. 12 comparison on one node.
var (
	gridBenches  = []string{"web", "json", "bert", "graph"}
	gridPolicies = []experiments.PolicyKind{experiments.Baseline, experiments.TMO, experiments.DAMON, experiments.FaaSMem}
)

// setupNodeGrid builds size copies of the 16-cell grid, each on its own
// bursty high-load trace shared by the cell's four benchmarks.
func setupNodeGrid(seed int64, size int, quick bool, lc *layerClock) ([]job, error) {
	d := 8 * time.Minute
	if quick {
		d = time.Minute
	}
	var jobs []job
	for g := 0; g < size; g++ {
		t0 := lc.start()
		inv := experiments.HighLoadInvocations(d, traceSeed(g))
		lc.stop(layerGen, t0)
		for _, b := range gridBenches {
			for _, pk := range gridPolicies {
				jobs = append(jobs, &scenarioJob{sc: experiments.Scenario{
					Profile:     workload.ByName(b),
					Invocations: inv,
					Duration:    d,
					KeepAlive:   10 * time.Minute,
					Policy:      pk,
					SeedHistory: true,
					Seed:        subSeed(seed, g),
				}})
			}
		}
	}
	return jobs, nil
}

type scenarioJob struct{ sc experiments.Scenario }

func (j *scenarioJob) build(lc *layerClock) func() result {
	run := buildScenario(j.sc, lc)
	return func() result {
		out, events := run()
		r := result{counters: outcomeCounters(out)}
		r.events = events
		if r.requests != len(j.sc.Invocations) {
			r.err = fmt.Errorf("%s/%s: %d requests completed, %d scheduled",
				j.sc.Profile.Name, j.sc.Policy, r.requests, len(j.sc.Invocations))
		}
		return r
	}
}

// buildScenario makes the same calls as experiments.RunScenario with nil
// telemetry sinks, timing each layer boundary; the returned function runs
// the scenario and also reports the number of DES events fired.
// TestScenarioMatchesHarness holds the outcome equal to RunScenario's.
func buildScenario(sc experiments.Scenario, lc *layerClock) func() (experiments.Outcome, int64) {
	t0 := lc.start()
	pol, fm := experiments.BuildPolicy(sc.Policy, sc.CoreConfig)
	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{KeepAliveTimeout: sc.KeepAlive, Seed: sc.Seed, Pool: sc.Pool, Swap: sc.Swap}, pol)
	fnID := sc.Profile.Name
	f := p.Register(fnID, sc.Profile)
	p.ScheduleInvocations(fnID, sc.Invocations)
	if fm != nil && sc.SeedHistory {
		ka := trace.SimulateKeepAlive(sc.Invocations, sc.Profile.ExecTime, sc.KeepAlive)
		fm.SeedReuseIntervals(fnID, ka.ReusedIntervals)
	}
	lc.stop(layerBuild, t0)

	return func() (experiments.Outcome, int64) {
		t0 := lc.start()
		e.RunUntil(sc.Duration + sc.KeepAlive)
		lc.stop(layerRun, t0)

		st := f.Stats()
		out := experiments.Outcome{
			Policy:            sc.Policy,
			AvgLocalMB:        p.NodeLocalAvg() / 1e6,
			PeakLocalMB:       metrics.MB(p.NodeLocalPeak()),
			AvgRemoteMB:       p.NodeRemoteAvg() / 1e6,
			AvgLat:            st.Latency.Mean(),
			P50:               st.Latency.P50(),
			P95:               st.Latency.P95(),
			P99:               st.Latency.P99(),
			Requests:          st.Requests,
			ColdStarts:        st.ColdStarts,
			WarmStarts:        st.WarmStarts,
			SemiWarmStarts:    st.SemiWarmStarts,
			FaultPages:        st.FaultPages,
			RuntimeFaultPages: st.RuntimeFaultPages,
			OffloadedMB:       metrics.MB(p.Pool().Meter(rmem.Offload).Total()),
			RecalledMB:        metrics.MB(p.Pool().Meter(rmem.Recall).Total()),
			OffloadBWMBps:     p.Pool().Meter(rmem.Offload).Average(e.Now()) / 1e6,
			RecallBWMBps:      p.Pool().Meter(rmem.Recall).Average(e.Now()) / 1e6,
			LiveAvg:           p.LiveContainersAvg(),
		}
		if fm != nil {
			out.CoreStats = fm.Stats()
		}
		if p.Pool().FaultsPlanned() {
			rec := p.Recovery()
			out.Recovery = &rec
		}
		if mn := p.Pool().Node(); mn != nil {
			st := mn.Stats()
			out.MemNode = &st
		}
		return out, int64(e.Fired())
	}
}

// outcomeCounters extracts the counters of a single-node outcome.
func outcomeCounters(o experiments.Outcome) counters {
	c := counters{
		requests:    o.Requests,
		coldStarts:  o.ColdStarts,
		semiWarm:    o.SemiWarmStarts,
		faultPages:  o.FaultPages,
		offloadedMB: o.OffloadedMB,
		recalledMB:  o.RecalledMB,
		localMB:     o.AvgLocalMB,
		p95Weighted: float64(o.Requests) * o.P95,
	}
	if cs := o.CoreStats; cs != nil {
		c.rollbacks, c.runtimeOffloads = cs.Rollbacks, cs.RuntimeOffloads
	}
	if r := o.Recovery; r != nil {
		c.retries, c.timeouts, c.fallbacks, c.reinits = r.FetchRetries, r.FetchTimeouts, r.FallbackPages, r.ColdReinits
	}
	return c
}

// ---------------------------------------------------------------- racks

// rackTenants splits the 11 benchmarks round-robin across three tenants;
// t0 and t1 opt into cross-tenant merging and t2 does not, so every rack
// carries a non-consenting tenant across the merge boundary.
const rackTenants = 3

type rackFn struct {
	prof *workload.Profile
	inv  []simtime.Time
}

type rackJob struct {
	fns      []rackFn
	tenantOf map[string]string
	seed     int64
	horizon  time.Duration
}

// rackSetup returns the setup of a 3-node rack whose memory node merges
// runtime pages across tenants behind a 64 MB shared cache; writeRatio sets
// every function's RuntimeWriteRatio (0 keeps merged pages read-only).
func rackSetup(writeRatio float64) func(int64, int, bool, *layerClock) ([]job, error) {
	return func(seed int64, size int, quick bool, lc *layerClock) ([]job, error) {
		d := 90 * time.Second
		if quick {
			d = 20 * time.Second
		}
		var jobs []job
		for k := 0; k < size; k++ {
			j := &rackJob{tenantOf: map[string]string{}, seed: subSeed(seed, k), horizon: d + 2*time.Minute}
			t0 := lc.start()
			for i, prof := range workload.Profiles() {
				fn := trace.GenerateFunction(prof.Name, d, time.Duration(3+i)*time.Second, true, traceSeed(k)+int64(i))
				p := *prof
				p.RuntimeWriteRatio = writeRatio
				j.fns = append(j.fns, rackFn{prof: &p, inv: fn.Invocations})
				j.tenantOf[p.Name] = "t" + strconv.Itoa(i%rackTenants)
			}
			lc.stop(layerGen, t0)
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
}

func (j *rackJob) build(lc *layerClock) func() result {
	t0 := lc.start()
	nodeCfg := memnode.Config{
		DRAMBytes:          256 << 20,
		SpillBytes:         512 << 20,
		DisableCompression: true,
		MergeScope:         memnode.MergeCrossTenant,
		MergeOptIn:         []string{"t0", "t1"},
		TenantOf:           func(fn string) string { return j.tenantOf[fn] },
		CacheBytes:         64 << 20,
	}
	var policies []*core.FaaSMem
	e := simtime.NewEngine()
	c := cluster.New(e, cluster.Config{
		Nodes: 3,
		Node:  faas.Config{KeepAliveTimeout: 2 * time.Minute, Seed: j.seed},
		Pool:  rmem.Config{Node: &nodeCfg},
	}, func() policy.Policy {
		fm := core.New(core.Config{})
		policies = append(policies, fm)
		return fm
	})
	scheduled := 0
	for _, f := range j.fns {
		c.Register(f.prof.Name, f.prof)
		c.ScheduleInvocations(f.prof.Name, f.inv)
		scheduled += len(f.inv)
	}
	lc.stop(layerBuild, t0)
	return func() result { return j.finish(lc, e, c, policies, scheduled) }
}

// finish runs a built rack to its horizon, collects its counters and checks
// the drain and the memory node's invariants.
func (j *rackJob) finish(lc *layerClock, e *simtime.Engine, c *cluster.Cluster, policies []*core.FaaSMem, scheduled int) result {
	t0 := lc.start()
	e.RunUntil(j.horizon)
	lc.stop(layerRun, t0)

	t0 = lc.start()
	st := c.Stats()
	lc.stop(layerStats, t0)
	var r result
	r.requests, r.coldStarts, r.semiWarm = st.Requests, st.ColdStarts, st.SemiWarmStarts
	r.localMB = st.TotalLocalAvgMB
	r.rescheduled, r.evicted = st.Rescheduled, st.Evicted
	r.events = int64(e.Fired())
	for _, n := range c.Nodes() {
		for _, f := range n.Functions() {
			fs := f.Stats()
			r.faultPages += fs.FaultPages
			if fs.Requests > 0 {
				r.p95Weighted += float64(fs.Requests) * fs.Latency.P95()
			}
		}
	}
	for _, fm := range policies {
		r.rollbacks += fm.Stats().Rollbacks
		r.runtimeOffloads += fm.Stats().RuntimeOffloads
	}
	r.offloadedMB = metrics.MB(c.Pool().Meter(rmem.Offload).Total())
	r.recalledMB = metrics.MB(c.Pool().Meter(rmem.Recall).Total())
	if mn := st.MemNode; mn != nil {
		r.dedupHits, r.merged, r.unmergeBreaks = mn.DedupHitPages, mn.MergedPages, mn.UnmergeBreaks
		r.cacheHits, r.cacheMisses, r.mnEvicts = mn.CacheHitPages, mn.CacheMissPages, mn.Evictions
		r.peakLogical, r.peakResident = mn.PeakLogicalBytes, mn.PeakResidentBytes
	}

	t0 = lc.start()
	err := c.Pool().Node().CheckInvariants()
	lc.stop(layerCheck, t0)
	switch {
	case err != nil:
		r.err = fmt.Errorf("rack: memnode invariants: %w", err)
	case st.Requests != scheduled || st.Submitted != scheduled:
		r.err = fmt.Errorf("rack: %d requests completed, %d submitted, %d scheduled", st.Requests, st.Submitted, scheduled)
	}
	return r
}

// ---------------------------------------------------------------- gateway

// exportEvery is how many /run requests pass between exporter reads.
const exportEvery = 50

// gatewayRun is the state the gateway jobs of one run share.
type gatewayRun struct {
	h        http.Handler
	requests int // simulated requests completed across every /run
	exports  int
	auditOK  bool
	errors   float64 // gateway_errors_total at the last /metrics read
}

type gatewayJob struct {
	gw       *gatewayRun
	req      gateway.RunRequest
	body     []byte
	expected int  // invocations the request's trace schedules
	export   bool // read the exporters after this request
}

// setupGateway builds the gateway and a request list alternating json and
// web, one request in four (a web one) under a 0.3-intensity fault plan.
// Requests and fault plans come from the trace library: a web request's
// simulated P95 jumps between warm and cold-start latency with its fault
// schedule, so seeded fault plans would make sim_p95_ms follow -seed rather
// than the code. -seed orders the groups of four, which changes what the
// service-lifetime sinks hold whenever the exporters are read.
func setupGateway(seed int64, size int, quick bool, lc *layerClock) ([]job, error) {
	dur := 300.0
	if quick {
		dur = 60
	}
	gw := &gatewayRun{h: gateway.Handler(), auditOK: true}
	var jobs []job
	for _, g := range rand.New(rand.NewSource(seed)).Perm(size) {
		for k := 0; k < 4; k++ {
			s := traceSeed(4*g + k)
			j := &gatewayJob{gw: gw, export: len(jobs)%exportEvery == exportEvery-1, req: gateway.RunRequest{
				Bench:       []string{"json", "web"}[k%2],
				DurationSec: dur,
				MeanGapSec:  6,
				Bursty:      true,
				Seed:        s,
			}}
			if k == 3 {
				j.req.FaultIntensity, j.req.FaultSeed = 0.3, s
			}
			var err error
			if j.body, err = json.Marshal(j.req); err != nil {
				return nil, fmt.Errorf("gateway request: %w", err)
			}
			t0 := lc.start()
			j.expected = len(j.trace().Invocations)
			lc.stop(layerGen, t0)
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

func (j *gatewayJob) trace() *trace.Function {
	return trace.GenerateFunction(j.req.Bench, time.Duration(j.req.DurationSec*float64(time.Second)),
		time.Duration(j.req.MeanGapSec*float64(time.Second)), j.req.Bursty, j.req.Seed)
}

// runOff runs the job's request as an in-process scenario with no telemetry
// sinks and no HTTP, for the traced run's telemetry on/off ratio.
func (j *gatewayJob) runOff(lc *layerClock) result {
	d := time.Duration(j.req.DurationSec * float64(time.Second))
	sc := experiments.Scenario{
		Profile:     workload.ByName(j.req.Bench),
		Invocations: j.trace().Invocations,
		Duration:    d,
		KeepAlive:   10 * time.Minute,
		Policy:      experiments.FaaSMem,
		SeedHistory: true,
		Seed:        j.req.Seed,
	}
	if j.req.FaultIntensity > 0 {
		sc.Pool.Faults = faultinject.New(faultinject.Config{
			Horizon: d + sc.KeepAlive, Intensity: j.req.FaultIntensity, Seed: j.req.FaultSeed,
		})
	}
	return runJob(&scenarioJob{sc: sc}, lc)
}

func (j *gatewayJob) build(lc *layerClock) func() result {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(j.body))
	return func() result {
		var r result
		rec := httptest.NewRecorder()
		j.gw.h.ServeHTTP(rec, req)
		var resp gateway.RunResponse
		if rec.Code != http.StatusOK {
			r.err = fmt.Errorf("POST /run: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			return r
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			r.err = fmt.Errorf("POST /run: %w", err)
			return r
		}
		r.counters = outcomeCounters(resp.Outcome)
		if resp.Requests != j.expected {
			r.err = fmt.Errorf("POST /run: %d requests completed, %d scheduled", resp.Requests, j.expected)
		}
		j.gw.requests += resp.Requests
		if j.export {
			t0 := lc.start()
			err := j.gw.export()
			lc.stop(layerExport, t0)
			if err != nil && r.err == nil {
				r.err = err
			}
		}
		return r
	}
}

// export reads /metrics, /timeline and /flows, as a scraper would, and
// checks the byte-flow conservation audit and the gateway's error counter.
func (gw *gatewayRun) export() error {
	gw.exports++
	metricsText, err := gw.get("/metrics")
	if err != nil {
		return err
	}
	if _, err := gw.get("/timeline"); err != nil {
		return err
	}
	flowsBody, err := gw.get("/flows")
	if err != nil {
		return err
	}
	var flows struct {
		Audit struct {
			OK bool `json:"ok"`
		} `json:"audit"`
	}
	if err := json.Unmarshal(flowsBody, &flows); err != nil {
		return fmt.Errorf("GET /flows: %w", err)
	}
	if !flows.Audit.OK {
		gw.auditOK = false
		return errors.New("GET /flows: conservation audit failed")
	}
	gw.errors = promValue(string(metricsText), "gateway_errors_total")
	if gw.errors != 0 {
		return fmt.Errorf("GET /metrics: gateway_errors_total %g", gw.errors)
	}
	return nil
}

func (gw *gatewayRun) get(path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	gw.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	body, err := io.ReadAll(rec.Result().Body)
	switch {
	case err != nil:
		return nil, fmt.Errorf("GET %s: %w", path, err)
	case rec.Code/100 != 2:
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	case len(body) == 0:
		return nil, fmt.Errorf("GET %s: empty body", path)
	}
	return body, nil
}

// spansDroppedPct reads /attrib and reports the share of completed requests
// whose span trees the gateway's ring no longer holds.
func (gw *gatewayRun) spansDroppedPct() (float64, error) {
	body, err := gw.get("/attrib?format=json")
	if err != nil {
		return 0, err
	}
	var an struct {
		Overall struct {
			N int `json:"n"`
		} `json:"overall"`
	}
	if err := json.Unmarshal(body, &an); err != nil {
		return 0, fmt.Errorf("GET /attrib: %w", err)
	}
	if gw.requests == 0 {
		return 0, nil
	}
	return 100 * float64(gw.requests-an.Overall.N) / float64(gw.requests), nil
}

// promValue returns the value of an unlabelled sample in Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
