package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/workload"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p95 of 199 samples is rank 190, with 9 beyond it.
	if _, err := percentile(xs, 95, minTail); err == nil {
		t.Fatal("p95 of 199 samples accepted with 9 beyond it")
	}
	if _, err := percentile(append(xs, 199), 95, minTail); err != nil {
		t.Fatalf("p95 of 200 samples (10 beyond) refused: %v", err)
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	med, err := percentile(xs, 50, minTail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-501) > 1e-6 {
		t.Errorf("median of 1..1001 = %v, want 501", med)
	}
	p95, err := percentile(xs, 95, minTail)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.95 * 1002; math.Abs(p95-want) > 1 {
		t.Errorf("p95 of 1..1001 = %v, want about %v", p95, want)
	}
	if med2 := median(xs); med2 != 501 {
		t.Errorf("median = %v, want 501", med2)
	}
}

func TestSpeedFactor(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		ref, before, after time.Duration
		want               float64
	}{
		{3 * ms, 3 * ms, 3 * ms, 1},   // reference speed
		{3 * ms, 2 * ms, 4 * ms, 1},   // the mean of both passes counts
		{3 * ms, 6 * ms, 6 * ms, 0.5}, // a host twice as slow halves times
		{3 * ms, 1 * ms, 2 * ms, 2},   // a faster host doubles them
	} {
		if got := speedFactor(c.ref, c.before, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speedFactor(%v, %v, %v) = %v, want %v", c.ref, c.before, c.after, got, c.want)
		}
	}
	// A job measured at 10 ms between passes of 4 and 6 ms, with a 2.5 ms
	// reference, is 5 ms on the reference host.
	if got := 10 * ms.Seconds() * speedFactor(5*ms/2, 4*ms, 6*ms); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("normalised time = %v s, want 0.005", got)
	}
}

func TestBucketsCoverInternalPackages(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fn := modulePrefix + "internal/" + e.Name() + ".(*T).Method"
		if got := bucketOf(fn); got != e.Name() {
			t.Errorf("internal/%s lands in bucket %q; add it to cpuBuckets", e.Name(), got)
		}
	}
	for fn, want := range map[string]string{
		modulePrefix + "internal/telemetry/span.(*Recorder).Add": "telemetry",
		modulePrefix + "internal/pagemem.(*Space).SetState":      "pagemem",
		"main.(*kernel).run":                           "bench",
		"runtime.mallocgc":                             "runtime_alloc",
		"runtime.mallocgcSmallNoscan":                  "runtime_alloc",
		"runtime.growslice":                            "runtime_alloc",
		"runtime.memclrNoHeapPointers":                 "runtime_alloc",
		"runtime.gcDrain":                              "runtime_gc",
		"runtime.scanobject":                           "runtime_gc",
		"runtime.gcAssistAlloc":                        "runtime_gc",
		"runtime.(*gcWork).tryGet":                     "runtime_gc",
		"runtime.mapaccess2_fast64":                    "runtime_map",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime_map",
		"runtime.memmove":                              "runtime_other",
		"runtime.futex":                                "runtime_other",
		"encoding/json.(*decodeState).object":          "std",
		"github.com/faasmem/faasmem/cmd/tool.main":     "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketSamplesReadsCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	k := newKernel()
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		k.run()
	}
	pprof.StopCPUProfile()
	got := map[string]int64{}
	if err := bucketSamples(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, n := range got {
		total += n
		if !slices.Contains(cpuBuckets, b) {
			t.Errorf("sample bucket %q is not in cpuBuckets", b)
		}
	}
	if total == 0 || got["bench"] == 0 {
		t.Fatalf("buckets %v: want samples in the kernel's own code", got)
	}

	// The meter's kernel passes are labelled and left out.
	m := newMeter(time.Millisecond)
	buf.Reset()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("cpu profile: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		m.pass()
	}
	pprof.StopCPUProfile()
	got = map[string]int64{}
	if err := bucketSamples(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if got["bench"] > total/10 {
		t.Errorf("calibration passes counted: %v", got)
	}
}

// TestScenarioMatchesHarness holds buildScenario, which times each layer
// boundary, to the outcome of experiments.RunScenario.
func TestScenarioMatchesHarness(t *testing.T) {
	inv := experiments.HighLoadInvocations(2*time.Minute, 3)
	for _, sc := range []experiments.Scenario{
		{Profile: workload.ByName("web"), Policy: experiments.DAMON},
		{Profile: workload.ByName("json"), Policy: experiments.FaaSMem},
		{Profile: workload.ByName("graph"), Policy: experiments.FaaSMem, Pool: faultPool()},
	} {
		sc.Invocations, sc.Duration, sc.KeepAlive = inv, 2*time.Minute, 3*time.Minute
		sc.SeedHistory, sc.Seed = true, 5
		want := experiments.RunScenario(sc)
		got, events := buildScenario(sc, &layerClock{on: true})()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: outcome differs from RunScenario:\n got %+v\nwant %+v", sc.Profile.Name, sc.Policy, got, want)
		}
		if events == 0 {
			t.Errorf("%s/%s: no DES events counted", sc.Profile.Name, sc.Policy)
		}
	}
}

func faultPool() rmem.Config {
	return rmem.Config{Faults: faultinject.New(faultinject.Config{Horizon: 5 * time.Minute, Intensity: 0.3, Seed: 9})}
}

// TestQuickRunsEmitDeclaredMetrics runs every workload of BENCHMARK.json at
// smoke-test size, untraced and traced, and checks that each run passes its
// correctness checks and reports exactly the metrics BENCHMARK.json names.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", declared, workloadNames())
	}

	start := time.Now()
	for _, w := range spec.Workloads {
		for _, tr := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range map[bool][]struct{ Name, Unit string }{false: spec.EndToEnd, true: spec.PerLayer}[tr] {
				want[m.Name] = m.Unit
			}
			rep, err := run(config{workload: w.Name, seed: 3, seconds: 1, trace: tr, quick: true, calRef: 2500 * time.Microsecond}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, tr, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, tr, rep.Correct, rep.Failed, rep.Attempted)
			}
			got := map[string]string{}
			cpu := 0.0
			for name, m := range rep.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, tr, name, m.Value)
				}
				if strings.HasPrefix(name, "cpu.") {
					cpu += m.Value
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.Name, tr, sortedKeys(got), sortedKeys(want))
			}
			if tr && math.Abs(cpu-100) > 1 && cpu != 0 {
				t.Errorf("%s: cpu.*_pct sum to %v, want 100", w.Name, cpu)
			}
		}
	}
	t.Logf("quick runs took %v", time.Since(start))
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, k+" ("+v+")")
	}
	sort.Strings(ks)
	return ks
}
