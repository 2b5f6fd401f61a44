package timeseries

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.AddCounter(time.Second, r.Series(SeriesRequests, Dims{Node: "n0"}, Counter), 1)
	r.SetGauge(time.Second, time.Second, r.Series(SeriesPoolUsedBytes, Dims{}, Gauge), 5)
	r.ObserveLatency(time.Second, r.Series(SeriesRequestLatency, Dims{}, Sample), time.Second)
	r.ArmFaultStarts([]time.Duration{time.Second})
	if r.Rows() != nil || r.Dumps() != nil || Summarize(r) != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.Window() != DefaultWindow {
		t.Fatalf("nil Window = %v, want %v", r.Window(), DefaultWindow)
	}
}

func TestDisabledTimelineZeroAlloc(t *testing.T) {
	var r *Recorder
	d := Dims{Node: "n0", Tenant: "fn"}
	allocs := testing.AllocsPerRun(1000, func() {
		r.AddCounter(3*time.Second, r.Series(SeriesRequests, d, Counter), 1)
		r.SetGauge(3*time.Second, 3*time.Second, r.Series(SeriesPoolUsedBytes, d, Gauge), 7)
		r.ObserveLatency(3*time.Second, r.Series(SeriesRequestLatency, d, Sample), 250*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f times per op", allocs)
	}
}

func TestWindowedRollups(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	reqs := r.Series(SeriesRequests, Dims{Node: "n0", Tenant: "fn"}, Counter)
	pool := r.Series(SeriesPoolUsedBytes, Dims{Node: "pool"}, Gauge)
	r.AddCounter(100*time.Millisecond, reqs, 1)
	r.AddCounter(900*time.Millisecond, reqs, 1)
	r.AddCounter(1100*time.Millisecond, reqs, 1)
	r.SetGauge(500*time.Millisecond, 500*time.Millisecond, pool, 10)
	r.SetGauge(800*time.Millisecond, 800*time.Millisecond, pool, 20)

	rows := r.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	// Window 0: pool gauge keeps the last value; requests sum to 2.
	byName := map[string]Row{}
	for _, row := range rows {
		if row.Window == 0 {
			byName[row.Name] = row
		}
	}
	if g := byName[SeriesPoolUsedBytes]; g.Last != 20 || g.Kind != "gauge" {
		t.Fatalf("gauge row = %+v, want last 20", g)
	}
	if c := byName[SeriesRequests]; c.Sum != 2 || c.Count != 2 || c.Kind != "counter" {
		t.Fatalf("counter row = %+v, want sum 2", c)
	}
	for _, row := range rows {
		if row.Window == 1 && row.Name == SeriesRequests && row.Sum != 1 {
			t.Fatalf("window 1 requests = %+v, want sum 1", row)
		}
	}
}

func TestSampleQuantile(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	lat := r.Series(SeriesRequestLatency, Dims{Node: "n0"}, Sample)
	// 99 fast observations and one slow one: P99 must land at or above the
	// fast cohort and at or below the recorded max.
	for i := 0; i < 99; i++ {
		r.ObserveLatency(10*time.Millisecond, lat, time.Millisecond)
	}
	slow := int64(800 * time.Millisecond)
	r.ObserveLatency(20*time.Millisecond, lat, time.Duration(slow))
	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	p99 := rows[0].P99
	if p99 < int64(time.Millisecond) || p99 > slow {
		t.Fatalf("P99 = %d, want within [1ms, %d]", p99, slow)
	}
	if rows[0].Max != slow {
		t.Fatalf("Max = %d, want %d", rows[0].Max, slow)
	}
}

func TestFaultWindowDump(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	r.ArmFaultStarts([]time.Duration{10 * time.Second})
	d := Dims{Node: "n0"}
	r.AddCounter(7*time.Second, r.Series(SeriesRequests, d, Counter), 1)  // within 8 windows of 10s
	r.AddCounter(time.Second, r.Series(SeriesRecallBytes, d, Counter), 5) // too old for the dump
	if got := len(r.Dumps()); got != 0 {
		t.Fatalf("dump before trigger: %d", got)
	}
	r.AddCounter(10500*time.Millisecond, r.Series(SeriesRequests, d, Counter), 1)
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	dmp := dumps[0]
	if dmp.Trigger != TriggerFaultWindow || dmp.At != 10*time.Second || dmp.Window != 10 {
		t.Fatalf("dump = %+v", dmp)
	}
	// The dump covers [2s, 10s): the 7s event qualifies, the 1s one does
	// not, and the triggering 10.5s event arrives after the snapshot.
	if len(dmp.Events) != 1 || dmp.Events[0].At != 7*time.Second {
		t.Fatalf("dump events = %+v, want the single 7s event", dmp.Events)
	}
}

// TestFaultStartsAcrossRuns arms one run's fault starts on a recorder that
// outlives it, as the gateway's does. A gauge span crosses the starts its
// end passes, so the first run dumps at 10 s; its 100 s start is never
// crossed, and the next run, whose clock restarts at 0 under no fault plan,
// must not dump there.
func TestFaultStartsAcrossRuns(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	pool := r.Series(SeriesPoolUsedBytes, Dims{Node: "pool"}, Gauge)
	r.StartRun()
	r.ArmFaultStarts([]time.Duration{10 * time.Second, 100 * time.Second})
	r.SetGauge(5*time.Second, 20*time.Second, pool, 1)
	if dumps := r.Dumps(); len(dumps) != 1 || dumps[0].At != 10*time.Second {
		t.Fatalf("run 1 dumps = %+v, want one at 10s", dumps)
	}
	r.StartRun()
	r.SetGauge(time.Second, 200*time.Second, pool, 2)
	if dumps := r.Dumps(); len(dumps) != 1 {
		t.Fatalf("run 2 took a stale fault-window dump: %+v", dumps[1:])
	}
}

func TestBurnRateDump(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	lat := r.Series(SeriesRequestLatency, Dims{Node: "n0"}, Sample)
	// Window 0: all observations breach the 1 s SLO.
	r.ObserveLatency(200*time.Millisecond, lat, 1500*time.Millisecond)
	r.ObserveLatency(600*time.Millisecond, lat, slo)
	if got := len(r.Dumps()); got != 0 {
		t.Fatalf("dump before window sealed: %d", got)
	}
	// First observation in window 1 seals window 0 and trips the alarm.
	r.ObserveLatency(1500*time.Millisecond, lat, 10*time.Millisecond)
	dumps := r.Dumps()
	if len(dumps) != 1 || dumps[0].Trigger != TriggerSLOBurn {
		t.Fatalf("dumps = %+v, want one slo-burn dump", dumps)
	}
	// Window 1 is healthy: sealing it must not dump again.
	r.ObserveLatency(2500*time.Millisecond, lat, 10*time.Millisecond)
	if got := len(r.Dumps()); got != 1 {
		t.Fatalf("healthy window dumped: %d dumps", got)
	}
}

// TestBurnAlarmAcrossRuns runs the same four over-SLO windows twice on one
// recorder, as the gateway's service-lifetime recorder sees consecutive
// runs. Within a run each window is sealed by the next; StartRun seals the
// previous run's last window, and the second run's windows, though their
// indices were seen before, must burn the alarm again.
func TestBurnAlarmAcrossRuns(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	lat := r.Series(SeriesRequestLatency, Dims{Node: "n0"}, Sample)
	run := func() {
		r.StartRun()
		for w := 0; w < 4; w++ {
			r.ObserveLatency(time.Duration(w)*time.Second+500*time.Millisecond, lat, 2*time.Second)
		}
	}
	run()
	if got := len(r.Dumps()); got != 3 {
		t.Fatalf("after run 1: %d dumps, want 3 (windows 0-2 sealed)", got)
	}
	run()
	dumps := r.Dumps()
	if len(dumps) != 7 {
		t.Fatalf("after run 2: %d dumps, want 7 (run 1's window 3, then run 2's windows 0-2)", len(dumps))
	}
	// Run 1's last window is sealed as of its end, and its dump holds run
	// 1's tail.
	if d := dumps[3]; d.Trigger != TriggerSLOBurn || d.At != 4*time.Second || d.Window != 4 || len(d.Events) == 0 {
		t.Fatalf("boundary dump = %+v, want slo-burn at 4s, window 4, with events", d)
	}
	// A run with nothing pending seals nothing.
	empty := NewRecorder(Config{})
	empty.StartRun()
	empty.StartRun()
	if got := len(empty.Dumps()); got != 0 {
		t.Fatalf("StartRun on an idle recorder dumped %d times", got)
	}
}

// TestTimelineEmitAllocationFree: once a series' cell for the window exists,
// emitting through the resolved handle, and resolving an existing series
// again, allocates nothing.
func TestTimelineEmitAllocationFree(t *testing.T) {
	r := NewRecorder(Config{})
	d := Dims{Node: "n0", Tenant: "fn"}
	reqs := r.Series(SeriesRequests, d, Counter)
	pool := r.Series(SeriesPoolUsedBytes, Dims{Node: "pool"}, Gauge)
	lat := r.Series(SeriesRequestLatency, d, Sample)
	at := 3 * time.Second
	r.AddCounter(at, reqs, 1)
	r.SetGauge(at, at, pool, 1)
	r.ObserveLatency(at, lat, time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		r.AddCounter(at, r.Series(SeriesRequests, d, Counter), 1)
		r.SetGauge(at, at, pool, 7)
		r.ObserveLatency(at, lat, 250*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled emits allocated %.1f times per op", allocs)
	}
}

func TestFlightRingBounded(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	capacity := r.cfg.flightCapacity
	reqs := r.Series(SeriesRequests, Dims{Node: "n0"}, Counter)
	for i := 0; i < capacity+12; i++ {
		r.AddCounter(time.Duration(i)*time.Microsecond, reqs, int64(i))
	}
	if got, want := r.FlightTotal(), uint64(capacity+12); got != want {
		t.Fatalf("FlightTotal = %d, want %d", got, want)
	}
	r.ArmFaultStarts([]time.Duration{30 * time.Millisecond})
	r.AddCounter(40*time.Millisecond, reqs, 1)
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps", len(dumps))
	}
	evs := dumps[0].Events
	if len(evs) != capacity {
		t.Fatalf("dump kept %d events, want ring capacity %d", len(evs), capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("dump events out of order: %+v", evs)
		}
	}
}

// TestFlightDumpsScopedToRun: a dump holds only its own run's flight
// events. Run 1 records one event a minute for an hour; run 2 restarts the
// clock, so run 1's later events sit past run 2's fault-window dump horizon
// on the shared time axis, yet belong to another run.
func TestFlightDumpsScopedToRun(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	reqs := r.Series(SeriesRequests, Dims{Node: "n0"}, Counter)
	r.StartRun()
	for at := time.Duration(0); at < time.Hour; at += time.Minute {
		r.AddCounter(at, reqs, 1)
	}
	r.StartRun()
	r.ArmFaultStarts([]time.Duration{50 * time.Second})
	r.AddCounter(45*time.Second, reqs, 2)
	r.AddCounter(50*time.Second, reqs, 2)
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	if evs := dumps[0].Events; len(evs) != 1 || evs[0].Value != 2 {
		t.Fatalf("run 2's dump holds %d events, want 1: its own 45 s event", len(evs))
	}
}

func TestSummarizeAndWriteText(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	r.SetGauge(500*time.Millisecond, 500*time.Millisecond, r.Series(SeriesNodeLocalBytes, Dims{Node: "n0"}, Gauge), 2<<20)
	r.SetGauge(500*time.Millisecond, 500*time.Millisecond, r.Series(SeriesNodeLocalBytes, Dims{Node: "n1"}, Gauge), 3<<20)
	r.SetGauge(500*time.Millisecond, 500*time.Millisecond, r.Series(SeriesPoolUsedBytes, Dims{Node: "pool"}, Gauge), 4<<20)
	r.AddCounter(600*time.Millisecond, r.Series(SeriesOffloadBytes, Dims{Node: "pool"}, Counter), 1<<20)
	r.AddCounter(2500*time.Millisecond, r.Series(SeriesFetchRetries, Dims{Node: "pool"}, Counter), 3)
	r.ObserveLatency(700*time.Millisecond, r.Series(SeriesRequestLatency, Dims{Node: "n0", Tenant: "fn"}, Sample), 40*time.Millisecond)
	r.AddCounter(700*time.Millisecond, r.Series(SeriesRequests, Dims{Node: "n0", Tenant: "fn"}, Counter), 1)

	sum := Summarize(r)
	if len(sum) != 3 {
		t.Fatalf("got %d summary rows, want 3 (windows 0..2)", len(sum))
	}
	w0 := sum[0]
	if w0.LocalMB != 5 || w0.PoolMB != 4 || w0.OffloadMB != 1 || w0.Requests != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.P99Ms <= 0 || w0.P99Ms > 41 {
		t.Fatalf("window 0 P99Ms = %v, want (0, 41]", w0.P99Ms)
	}
	if sum[1].Requests != 0 || sum[2].Retries != 3 {
		t.Fatalf("windows 1/2 = %+v / %+v", sum[1], sum[2])
	}

	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"timeline: 3 windows of 1s", "window", "p99(ms)", "retries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestRowsDeterministicOrder(t *testing.T) {
	build := func() []Row {
		r := NewRecorder(Config{Window: time.Second})
		for i := 0; i < 50; i++ {
			d := Dims{Node: "n" + string(rune('0'+i%3)), Tenant: "t" + string(rune('0'+i%5))}
			r.AddCounter(time.Duration(i)*137*time.Millisecond, r.Series(SeriesRequests, d, Counter), 1)
		}
		return r.Rows()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMaxDumpsCap(t *testing.T) {
	r := NewRecorder(Config{Window: time.Second})
	var starts []time.Duration
	for i := 1; i <= maxDumps+2; i++ {
		starts = append(starts, time.Duration(i)*time.Second)
	}
	r.ArmFaultStarts(starts)
	r.AddCounter(time.Minute, r.Series(SeriesRequests, Dims{}, Counter), 1)
	if got := len(r.Dumps()); got != maxDumps {
		t.Fatalf("got %d dumps, want %d", got, maxDumps)
	}
	if got := r.DumpsDropped(); got != 2 {
		t.Fatalf("DumpsDropped = %d, want 2", got)
	}
}
