// Command bench is the repository's end-to-end benchmark. It runs one
// workload of the simulator in this process, with one client goroutine
// issuing jobs back to back (a closed loop at concurrency 1), and prints
// every metric by name and unit, ending with one JSON line:
//
//	bash bench/run.sh -cal-ref-ms 2.9 -workload node-grid -seed 1 -seconds 20 -trace 0
//
// Each run does fixed work: set-up is repeated five times, one warm-up job
// runs untimed, then a job list sized from -seconds runs for a fixed number
// of rounds. Every host time is normalised to the reference host by the
// calibration kernel (calibrate.go). -trace 1 alternates plain and traced
// rounds and reports the per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
)

const (
	setupRepeats = 5
	// rounds is how many times the job list runs after the warm-up job. It
	// is even so a traced run alternates plain and traced rounds evenly.
	rounds      = 4
	quickRounds = 2
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool // smoke-test sizes: tiny inputs, no tail-sample minimum
	calRef   time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var calRefMS float64
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "target length of the timed phase on the reference host")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes")
	flag.Float64Var(&calRefMS, "cal-ref-ms", 0, "calibration kernel time on the reference host, in ms (BENCHMARK.json's command carries it)")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case traceFlag != 0 && traceFlag != 1:
		fail(fmt.Errorf("-trace %d: want 0 or 1", traceFlag))
	case calRefMS <= 0:
		fail(errors.New("-cal-ref-ms must be positive"))
	case cfg.seconds < 1:
		fail(fmt.Errorf("-seconds %d: want at least 1", cfg.seconds))
	}
	cfg.trace = traceFlag == 1
	cfg.calRef = time.Duration(calRefMS * float64(time.Millisecond))

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// tally accumulates the jobs of the rounds that count toward one kind of
// metric: the plain rounds, the traced ones, or the gateway's off-side runs.
type tally struct {
	norm, raw []float64 // seconds per job, normalised and raw
	normSum   float64
	rawSum    float64
	requests  int
	events    int64
	layers    [numLayers]float64 // normalised seconds per layer
	calls     [numLayers]int
}

func (t *tally) add(raw time.Duration, factor float64, res result, lc *layerClock) {
	n := raw.Seconds() * factor
	t.norm = append(t.norm, n)
	t.raw = append(t.raw, raw.Seconds())
	t.normSum += n
	t.rawSum += raw.Seconds()
	t.requests += res.requests
	t.events += res.events
	for l, d := range lc.total {
		t.layers[l] += d.Seconds() * factor
		t.calls[l] += lc.calls[l]
	}
}

func (t *tally) jobs() float64 { return float64(max(len(t.norm), 1)) }

// perCall is the mean normalised time of one call into layer l, in ms.
func (t *tally) perCall(l layer) float64 { return 1000 * t.layers[l] / float64(max(t.calls[l], 1)) }

// run executes one benchmark run and returns its report; progress and every
// raw value go to log.
func run(cfg config, log io.Writer) (report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (options: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	experiments.SetWorkers(1)
	m := newMeter(cfg.calRef)

	nRounds, size, tail := rounds, int(float64(time.Duration(cfg.seconds)*time.Second)/float64(rounds*w.unitCost)+0.5), minTail
	if size < 1 {
		size = 1
	}
	if cfg.quick {
		nRounds, size, tail = quickRounds, 1, 0
	}

	// Set-up: input generation plus platform and gateway construction,
	// repeated; the last repeat's jobs are the ones run.
	var jobs []job
	var setupNorm, setupRaw []float64
	var gen float64
	for i := 0; i < setupRepeats; i++ {
		lc := layerClock{on: cfg.trace}
		var err error
		raw, f := m.time(func() {
			if jobs, err = w.setup(cfg.seed, size, cfg.quick, &lc); err == nil {
				for _, j := range jobs {
					j.build(&lc)
				}
			}
		})
		if err != nil {
			return report{}, err
		}
		setupNorm = append(setupNorm, raw.Seconds()*f)
		setupRaw = append(setupRaw, raw.Seconds())
		gen += lc.total[layerGen].Seconds() * f / setupRepeats
	}
	fmt.Fprintf(log, "workload %s seed %d size %d rounds %d jobs/round %d\n", w.name, cfg.seed, size, nRounds, len(jobs))

	rep := report{Correct: true, Metrics: map[string]metric{}}
	check := func(where string, err error) {
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Correct = false
			if rep.Failed <= 5 {
				fmt.Fprintf(log, "FAIL %s: %v\n", where, err)
			}
		}
	}

	var warm result
	m.time(func() { warm = runJob(jobs[0], &layerClock{}) })
	check("warm-up job 0", warm.err)

	var plain, traced, off tally
	var simulated counters // one round's counters, identical in every round
	want := make([]uint64, len(jobs))
	profile := map[string]int64{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < nRounds; r++ {
		tracedRound := cfg.trace && r%2 == 1
		var prof bytes.Buffer
		if tracedRound {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return report{}, fmt.Errorf("cpu profile: %w", err)
			}
		}
		for i, j := range jobs {
			lc := layerClock{on: tracedRound}
			var res result
			raw, f := m.time(func() { res = runJob(j, &lc) })
			d := res.digest()
			if r == 0 {
				want[i] = d
				simulated.add(res.counters)
				if i == 0 && d != warm.digest() {
					res.err = errors.Join(res.err, errors.New("simulated digest differs from the warm-up run"))
				}
			} else if d != want[i] {
				res.err = errors.Join(res.err, fmt.Errorf("simulated digest %016x differs from round 0's %016x", d, want[i]))
			}
			check(fmt.Sprintf("round %d job %d", r, i), res.err)
			if tracedRound {
				traced.add(raw, f, res, &lc)
			} else {
				plain.add(raw, f, res, &lc)
			}
		}
		if tracedRound {
			pprof.StopCPUProfile()
			if err := bucketSamples(prof.Bytes(), profile); err != nil {
				return report{}, err
			}
		} else if cfg.trace && r == 0 {
			// The telemetry on/off ratio: the same requests again with no
			// sinks and no HTTP, timed like the jobs.
			for _, j := range jobs {
				if o, ok := j.(*gatewayJob); ok {
					lc := layerClock{on: true}
					var res result
					raw, f := m.time(func() { res = o.runOff(&lc) })
					check("off-side request", res.err)
					off.add(raw, f, res, &lc)
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)

	var digest uint64
	for _, d := range want {
		digest = digest*0x100000001b3 ^ d
	}
	fmt.Fprintf(log, "digest %s %016x\n", w.name, digest)

	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	kinv := float64(plain.requests+traced.requests+off.requests) / 1000
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		var p [2][2]float64 // {p50, p95} × {normalised, raw}
		for i, q := range []float64{50, 95} {
			for k, xs := range [][]float64{plain.norm, plain.raw} {
				if p[i][k], err = percentile(xs, q, tail); err != nil {
					return report{}, fmt.Errorf("job time: %w", err)
				}
			}
		}
		set("sim_inv_per_s", float64(plain.requests)/plain.normSum, "inv/s")
		set("job_p50_ms", 1000*p[0][0], "ms")
		set("job_p95_ms", 1000*p[1][0], "ms")
		set("setup_s", median(setupNorm), "s")
		set("peak_rss_mb", rss, "MB")
		set("alloc_mb_per_kinv", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/kinv, "MB/kinv")
		set("sim_local_mb", simulated.localMB/float64(len(jobs)), "MB")
		set("sim_p95_ms", 1000*simulated.p95Weighted/float64(max(simulated.requests, 1)), "sim_ms")
		fmt.Fprintf(log, "job times: %d samples; bench.cal_ms %.6g\n", len(plain.norm), median(m.cal))
		fmt.Fprintf(log, "raw (not normalised): sim_inv_per_s %.6g job_p50_ms %.6g job_p95_ms %.6g setup_s %.6g\n",
			float64(plain.requests)/plain.rawSum, 1000*p[0][1], 1000*p[1][1], median(setupRaw))
	} else {
		var samples int64
		for _, n := range profile {
			samples += n
		}
		for _, b := range cpuBuckets {
			set("cpu."+b+"_pct", 100*float64(profile[b])/float64(max(samples, 1)), "%")
		}
		fmt.Fprintf(log, "profile samples %d\n", samples)
		setLayerMetrics(set, simulated, float64(len(jobs)), traced, off, gen)
		set("runtime.gc_cycles_per_kinv", float64(ms1.NumGC-ms0.NumGC)/kinv, "count/kinv")
		set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
		set("runtime.mallocs_per_inv", float64(ms1.Mallocs-ms0.Mallocs)/(1000*kinv), "count/inv")
		set("bench.jobs", float64(len(plain.norm)+len(traced.norm)), "count")
		set("bench.cal_ms", median(m.cal), "ms")
		set("bench.raw_inv_per_s", float64(plain.requests)/plain.rawSum, "inv/s")
		set("bench.trace_overhead_pct", 100*(traced.normSum/plain.normSum-1), "%")
		// Telemetry and the gateway run only in gateway-observed; elsewhere
		// their metrics read 0.
		var onOff, dropped, audit, exportMS, gwErrors float64
		if gw := gatewayOf(jobs); gw != nil {
			var err error
			dropped, err = gw.spansDroppedPct()
			check("GET /attrib", err)
			onOff = (plain.normSum / plain.jobs()) / (off.normSum / off.jobs())
			if gw.auditOK && gw.exports > 0 {
				audit = 1
			}
			exportMS = traced.perCall(layerExport)
			gwErrors = gw.errors
		}
		set("telemetry.on_off_ratio", onOff, "ratio")
		set("telemetry.spans_dropped_pct", dropped, "%")
		set("telemetry.flows_audit_ok", audit, "bool")
		set("telemetry.export_ms", exportMS, "ms")
		set("gateway.errors", gwErrors, "count")
	}

	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "%-34s %14s %s\n", name, strconv.FormatFloat(rep.Metrics[name].Value, 'g', 6, 64), rep.Metrics[name].Unit)
	}
	return rep, nil
}

// setLayerMetrics fills the per-layer metrics that come from one round's
// simulated counters and from the layer clocks. Metrics of layers the
// workload does not reach read 0.
func setLayerMetrics(set func(string, float64, string), c counters, jobs float64, traced, off tally, gen float64) {
	req := float64(max(c.requests, 1))
	set("core.rollbacks_per_job", float64(c.rollbacks)/jobs, "count/job")
	set("core.runtime_offloads_per_job", float64(c.runtimeOffloads)/jobs, "count/job")
	set("faas.cold_start_pct", 100*float64(c.coldStarts)/req, "%")
	set("faas.semiwarm_pct", 100*float64(c.semiWarm)/req, "%")
	set("trace.gen_ms", 1000*gen, "ms")
	set("rmem.fault_pages_per_inv", float64(c.faultPages)/req, "count/inv")
	set("rmem.recall_pct", 100*c.recalledMB/max(c.offloadedMB, 1e-9), "%")
	set("memnode.dedup_hit_pages", float64(c.dedupHits)/jobs, "count/job")
	set("memnode.merged_pages", float64(c.merged)/jobs, "count/job")
	set("memnode.unmerge_breaks", float64(c.unmergeBreaks)/jobs, "count/job")
	set("memnode.evictions", float64(c.mnEvicts)/jobs, "count/job")
	set("memnode.cache_hit_pct", 100*float64(c.cacheHits)/float64(max(c.cacheHits+c.cacheMisses, 1)), "%")
	amp := 0.0
	if c.peakResident > 0 {
		amp = float64(c.peakLogical) / float64(c.peakResident)
	}
	set("memnode.amplification", amp, "ratio")
	set("memnode.check_ms", traced.perCall(layerCheck), "ms")
	set("cluster.rescheduled", float64(c.rescheduled)/jobs, "count/job")
	set("cluster.evicted", float64(c.evicted)/jobs, "count/job")
	set("cluster.stats_ms", traced.perCall(layerStats), "ms")
	set("recovery.retries", float64(c.retries)/jobs, "count/job")
	set("recovery.timeouts", float64(c.timeouts)/jobs, "count/job")
	set("recovery.fallbacks", float64(c.fallbacks)/jobs, "count/job")
	set("recovery.reinits", float64(c.reinits)/jobs, "count/job")

	// The DES and build numbers come from runs whose engine the benchmark
	// holds: the traced rounds, or for the gateway, whose engine is
	// internal, the off-side runs of the same requests.
	des := traced
	if len(off.norm) > 0 {
		des = off
	}
	set("faas.build_ms_per_job", 1000*des.layers[layerBuild]/des.jobs(), "ms")
	set("simtime.run_ms_per_job", 1000*des.layers[layerRun]/des.jobs(), "ms")
	set("simtime.events_per_inv", float64(des.events)/float64(max(des.requests, 1)), "count/inv")
	set("simtime.ns_per_event", 1e9*des.layers[layerRun]/float64(max(des.events, 1)), "ns")
}

func gatewayOf(jobs []job) *gatewayRun {
	if j, ok := jobs[0].(*gatewayJob); ok {
		return j.gw
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
