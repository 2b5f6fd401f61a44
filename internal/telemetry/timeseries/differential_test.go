package timeseries

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/hist"
)

// refRecorder is the reference the dense recorder is checked against: every
// series is a map from window to cell, looked up by its key on every emit,
// flight events live in a plain slice, and each method is written for
// clarity rather than speed. It covers the series, the flight recorder, the
// burn-rate alarm and the flow ledger, whose flows are a map of maps and
// whose occupancy checkpoints are a map keyed by window (fault-window
// triggers are out of scope).
type refRecorder struct {
	cfg         Config
	kinds       map[seriesKey]SeriesKind
	cells       map[seriesKey]map[int64]*refCell
	flight      []FlightEvent
	flightTotal uint64
	runFlight   uint64 // flightTotal when the current run started
	alarmWin    int64
	alarmCount  int64
	alarmOver   int64
	alarmSeries string
	dumps       []Dump
	dropped     int
	flows       map[flowKey]map[int64]int64
	occ         map[int64]*occWindow
	flowNet     int64
	flowRuns    int
}

type refCell struct {
	count, sum, last, min, max int64
	buckets                    *hist.Buckets
}

func newRefRecorder(cfg Config) *refRecorder {
	return &refRecorder{
		cfg:      cfg.withDefaults(),
		kinds:    map[seriesKey]SeriesKind{},
		cells:    map[seriesKey]map[int64]*refCell{},
		alarmWin: noWindow,
		flows:    map[flowKey]map[int64]int64{},
		occ:      map[int64]*occWindow{},
	}
}

func (o *refRecorder) resolve(k seriesKey, kind SeriesKind) {
	if _, ok := o.kinds[k]; !ok {
		o.kinds[k] = kind
		o.cells[k] = map[int64]*refCell{}
	}
}

func (o *refRecorder) cell(k seriesKey, at simtime.Time) *refCell {
	win := int64(at / o.cfg.Window)
	c := o.cells[k][win]
	if c == nil {
		c = &refCell{}
		o.cells[k][win] = c
	}
	return c
}

func (c *refCell) add(v int64) {
	if c.count == 0 {
		c.min, c.max = v, v
	}
	c.min, c.max = min(c.min, v), max(c.max, v)
	c.count++
	c.sum += v
	c.last = v
}

func (c *refCell) sample(v int64) {
	c.add(v)
	if c.buckets == nil {
		c.buckets = new(hist.Buckets)
	}
	c.buckets.Observe(v)
}

func (o *refRecorder) push(ev FlightEvent) {
	o.flightTotal++
	o.flight = append(o.flight, ev)
	if len(o.flight) > o.cfg.flightCapacity {
		o.flight = o.flight[1:]
	}
}

func (o *refRecorder) counter(at simtime.Time, k seriesKey, v int64) {
	o.cell(k, at).add(v)
	o.push(FlightEvent{At: at, Name: k.name, Dims: k.dims, Value: v})
}

// gauge applies a span reading as one set per window, from's through to's.
func (o *refRecorder) gauge(from, to simtime.Time, k seriesKey, v int64) {
	for win := from / o.cfg.Window; win <= to/o.cfg.Window; win++ {
		o.cell(k, win*o.cfg.Window).add(v)
	}
}

func (o *refRecorder) latency(at simtime.Time, k seriesKey, v int64) {
	win := int64(at / o.cfg.Window)
	if win > o.alarmWin {
		o.seal(at)
		o.alarmWin = win
	}
	if win == o.alarmWin {
		o.alarmCount++
		o.alarmSeries = k.name
		if v >= int64(slo) {
			o.alarmOver++
		}
	}
	o.cell(k, at).sample(v)
	o.push(FlightEvent{At: at, Name: k.name, Dims: k.dims, Value: v})
}

func (o *refRecorder) seal(at simtime.Time) {
	if o.alarmCount > 0 && float64(o.alarmOver) >= burnThreshold*float64(o.alarmCount) {
		o.dump(TriggerSLOBurn, o.alarmSeries, at)
	}
	o.alarmCount, o.alarmOver = 0, 0
}

func (o *refRecorder) dump(trigger Trigger, series string, at simtime.Time) {
	if len(o.dumps) >= maxDumps {
		o.dropped++
		return
	}
	horizon := at - flightWindows*o.cfg.Window
	var events []FlightEvent
	for i, ev := range o.flight {
		pushed := o.flightTotal - uint64(len(o.flight)) + uint64(i)
		if pushed >= o.runFlight && ev.At >= horizon {
			events = append(events, ev)
		}
	}
	o.dumps = append(o.dumps, Dump{Trigger: trigger, Series: series, At: at, Window: int64(at / o.cfg.Window), Events: events})
}

func (o *refRecorder) startRun() {
	if o.alarmCount > 0 {
		o.seal(simtime.Time(o.alarmWin+1) * o.cfg.Window)
	}
	o.alarmWin = noWindow
	o.runFlight = o.flightTotal
	o.flowRuns++
}

func (o *refRecorder) addFlow(at simtime.Time, kind FlowKind, d Dims, bytes int64) {
	if bytes == 0 {
		return
	}
	k := flowKey{kind: kind, dims: d}
	if o.flows[k] == nil {
		o.flows[k] = map[int64]int64{}
	}
	o.flows[k][int64(at/o.cfg.Window)] += bytes
	o.flowNet += int64(kind.Direction()) * bytes
}

func (o *refRecorder) flowOccupancy(at simtime.Time, occ int64) {
	if o.flowRuns == 0 {
		o.flowRuns = 1
	}
	win := int64(at / o.cfg.Window)
	w := o.occ[win]
	if w == nil {
		w = &occWindow{firstOcc: occ, firstNet: o.flowNet}
		o.occ[win] = w
	}
	w.lastOcc, w.lastNet = occ, o.flowNet
	w.checks++
}

// flowRows flattens every cell and sorts the rows, ranking flow names by a
// scan of the name table.
func (o *refRecorder) flowRows() []FlowRow {
	var out []FlowRow
	for k, wins := range o.flows {
		for win, bytes := range wins {
			out = append(out, FlowRow{
				Window: win, Start: simtime.Time(win) * o.cfg.Window,
				Flow: k.kind.String(), Direction: k.kind.Direction(),
				Node: k.dims.Node, Tenant: k.dims.Tenant, Class: k.dims.Class, Bytes: bytes,
			})
		}
	}
	flowOrder := func(name string) int {
		for i, n := range flowNames {
			if n == name {
				return i
			}
		}
		return len(flowNames)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Flow != b.Flow {
			return flowOrder(a.Flow) < flowOrder(b.Flow)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Class < b.Class
	})
	return out
}

func (o *refRecorder) flowTotals() (totals [NumFlows]int64) {
	for k, wins := range o.flows {
		for _, bytes := range wins {
			totals[k.kind] += bytes
		}
	}
	return totals
}

func (o *refRecorder) auditFlows() FlowAudit {
	a := FlowAudit{Runs: o.flowRuns, OK: true}
	if o.flowRuns > 1 {
		a.Merged = true
		for _, w := range o.occ {
			a.Checks += w.checks
		}
		return a
	}
	var wins []int64
	for win := range o.occ {
		wins = append(wins, win)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	var prev *occWindow
	for _, win := range wins {
		w := o.occ[win]
		wa := FlowWindowAudit{Window: win, Checks: w.checks}
		if prev != nil {
			wa.OccDelta, wa.FlowDelta = w.lastOcc-prev.lastOcc, w.lastNet-prev.lastNet
		} else {
			wa.OccDelta, wa.FlowDelta = w.lastOcc-w.firstOcc, w.lastNet-w.firstNet
		}
		wa.OK = wa.OccDelta == wa.FlowDelta
		if !wa.OK {
			a.Violations++
			a.OK = false
		}
		a.Checks += w.checks
		a.Windows = append(a.Windows, wa)
		prev = w
	}
	return a
}

func (o *refRecorder) rows() []Row {
	var out []Row
	for k, wins := range o.cells {
		for win, c := range wins {
			row := Row{
				Window: win, Start: simtime.Time(win) * o.cfg.Window,
				Name: k.name, Node: k.dims.Node, Tenant: k.dims.Tenant, Class: k.dims.Class,
				Kind: o.kinds[k].String(), Count: c.count, Sum: c.sum, Last: c.last, Min: c.min, Max: c.max,
			}
			if o.kinds[k] == Sample {
				row.P99 = c.buckets.Quantile(0.99, c.count, c.max)
			}
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ka := []string{a.Name, a.Node, a.Tenant, a.Class}
		kb := []string{b.Name, b.Node, b.Tenant, b.Class}
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		for n := range ka {
			if ka[n] != kb[n] {
				return ka[n] < kb[n]
			}
		}
		return false
	})
	return out
}

func (o *refRecorder) buckets(name string) (b hist.Buckets) {
	for k, wins := range o.cells {
		if k.name != name {
			continue
		}
		for _, c := range wins {
			if c.buckets != nil {
				b.Merge(c.buckets)
			}
		}
	}
	return b
}

func (o *refRecorder) summarize() []SummaryRow {
	type agg struct {
		local, pool, offload, recall, requests, retries int64
		timeouts, fallback, reinits, faultKinds         int64
		latCount, latMax                                int64
		lat                                             hist.Buckets
	}
	aggs := map[int64]*agg{}
	lo, hi := int64(0), int64(-1)
	for k, wins := range o.cells {
		for win, c := range wins {
			if hi < lo {
				lo, hi = win, win
			}
			lo, hi = min(lo, win), max(hi, win)
			a := aggs[win]
			if a == nil {
				a = &agg{}
				aggs[win] = a
			}
			switch k.name {
			case SeriesNodeLocalBytes:
				a.local += c.last
			case SeriesPoolUsedBytes:
				a.pool += c.last
			case SeriesOffloadBytes:
				a.offload += c.sum
			case SeriesRecallBytes:
				a.recall += c.sum
			case SeriesRequests:
				a.requests += c.sum
			case SeriesFetchRetries:
				a.retries += c.sum
			case SeriesFetchTimeouts:
				a.timeouts += c.sum
			case SeriesFallbackPages:
				a.fallback += c.sum
			case SeriesColdReinits:
				a.reinits += c.sum
			case SeriesFaultActiveKinds:
				a.faultKinds = max(a.faultKinds, c.max)
			case SeriesRequestLatency:
				a.latCount += c.count
				a.latMax = max(a.latMax, c.max)
				if c.buckets != nil {
					a.lat.Merge(c.buckets)
				}
			}
		}
	}
	var out []SummaryRow
	for win := lo; win <= hi; win++ {
		row := SummaryRow{Window: win, StartSec: (simtime.Time(win) * o.cfg.Window).Seconds()}
		if a := aggs[win]; a != nil {
			const mb = 1 << 20
			row.LocalMB, row.PoolMB = float64(a.local)/mb, float64(a.pool)/mb
			row.OffloadMB, row.RecallMB = float64(a.offload)/mb, float64(a.recall)/mb
			row.Requests, row.Retries, row.Timeouts = a.requests, a.retries, a.timeouts
			row.FallbackPages, row.Reinits, row.FaultKinds = a.fallback, a.reinits, a.faultKinds
			if a.latCount > 0 {
				row.P99Ms = float64(a.lat.Quantile(0.99, a.latCount, a.latMax)) / float64(time.Millisecond)
			}
		}
		out = append(out, row)
	}
	return out
}

// diffNames and diffDims are what the differential fuzz resolves series
// from: every name Summarize reads plus one it ignores, and dimension sets
// from none to all three.
var (
	diffNames = []string{
		SeriesNodeLocalBytes, SeriesPoolUsedBytes, SeriesOffloadBytes, SeriesRecallBytes,
		SeriesRequests, SeriesFetchRetries, SeriesFetchTimeouts, SeriesFallbackPages,
		SeriesColdReinits, SeriesFaultActiveKinds, SeriesRequestLatency, "other",
	}
	diffDims = []Dims{{}, {Node: "n0"}, {Node: "n1", Tenant: "a"}, {Node: "pool", Tenant: "b", Class: "init"}}
	// diffFlowDims are the flow ledger's keys: one tenant's flows in no
	// class and in two classes, and a second tenant.
	diffFlowDims = []Dims{
		{Node: "pool", Tenant: "a"}, {Node: "pool", Tenant: "a", Class: "init"},
		{Node: "pool", Tenant: "a", Class: "runtime"}, {Node: "pool", Tenant: "b", Class: "init"},
	}
)

// flowOps is the first opcode that drives the flow ledger; every seed's
// opcodes below it keep their meaning.
const flowOps = 128

// diffConfig keeps the flight ring small so a short input overflows it.
var diffConfig = Config{Window: time.Second, flightCapacity: 16}

// diffTarget is the recorder under test beside its reference, plus the
// series it has resolved so far (handle i resolves keys[i] to ids[i]).
type diffTarget struct {
	rec  *Recorder
	ref  *refRecorder
	ids  []SeriesID
	keys []seriesKey
}

// checkFlows requires the recorder's flow ledger exports to equal the
// reference's.
func (d *diffTarget) checkFlows(t *testing.T, label string) {
	t.Helper()
	if got, want := d.rec.FlowRows(), d.ref.flowRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FlowRows\n got %+v\nwant %+v", label, got, want)
	}
	if got, want := d.rec.FlowTotals(), d.ref.flowTotals(); got != want {
		t.Fatalf("%s: FlowTotals = %v, want %v", label, got, want)
	}
	if got, want := AuditFlows(d.rec), d.ref.auditFlows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AuditFlows\n got %+v\nwant %+v", label, got, want)
	}
}

// check requires the recorder's exports to equal the reference's.
func (d *diffTarget) check(t *testing.T, label string) {
	t.Helper()
	d.checkFlows(t, label)
	if got, want := d.rec.Rows(), d.ref.rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Rows\n got %+v\nwant %+v", label, got, want)
	}
	sum := d.ref.summarize()
	if got := Summarize(d.rec); !reflect.DeepEqual(got, sum) {
		t.Fatalf("%s: Summarize\n got %+v\nwant %+v", label, got, sum)
	}
	for _, name := range diffNames {
		if got, want := d.rec.Buckets(name), d.ref.buckets(name); got != want {
			t.Fatalf("%s: Buckets(%s) = %v, want %v", label, name, got, want)
		}
	}
	if got, want := d.rec.Dumps(), d.ref.dumps; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: Dumps\n got %+v\nwant %+v", label, got, want)
	}
	if got, want := d.rec.DumpsDropped(), d.ref.dropped; got != want {
		t.Fatalf("%s: DumpsDropped = %d, want %d", label, got, want)
	}
	if got, want := d.rec.FlightTotal(), d.ref.flightTotal; got != want {
		t.Fatalf("%s: FlightTotal = %d, want %d", label, got, want)
	}
	var got bytes.Buffer
	if err := WriteText(&got, d.rec); err != nil {
		t.Fatal(err)
	}
	each := func(fn func(SummaryRow)) {
		for _, row := range sum {
			fn(row)
		}
	}
	want := appendText(nil, d.ref.cfg.Window, each, d.ref.flowTotals(), d.ref.auditFlows(), d.ref.dumps, d.ref.dropped)
	if got.String() != string(want) {
		t.Fatalf("%s: WriteText\n got:\n%s\nwant:\n%s", label, got.String(), want)
	}
	if app := AppendText([]byte("kept"), d.rec); string(app) != "kept"+string(want) {
		t.Fatalf("%s: AppendText after a prefix\n got:\n%s\nwant:\nkept%s", label, app, want)
	}
}

// FuzzRecorderDifferential drives the dense recorder and the map-keyed
// reference with the same operations and requires identical exports. Each
// op is five bytes: an opcode, then four arguments. The opcodes below
// flowOps resolve a series, emit a counter, gauge or latency sample by a
// resolved handle at a window and offset (a gauge over a span of windows),
// or start a new run (so later emits revisit windows and dumps leave out
// earlier runs' events). The opcodes from flowOps up record a flow or an
// occupancy checkpoint, after which the flow ledger's exports are compared.
func FuzzRecorderDifferential(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 0, 1, 0, 3, 0, 5, 0, 10, 1, 0, 0, 1, 0, 3, 0, 2})
	// Over-SLO latency in windows 0-2, a new run, then over-SLO latency in
	// its windows 0-1: the new run's dump must leave out the first run's
	// events.
	f.Add([]byte{
		0, 10, 2, 2, 0, 3, 0, 0, 9, 200, 3, 0, 1, 9, 200, 3, 0, 2, 9, 200,
		4, 0, 0, 0, 0, 3, 0, 0, 3, 150, 3, 0, 1, 0, 150,
	})
	// Two gauges, then a new run whose reading lands in the first gauge's
	// window 7 again: the cell keeps the later run's last value.
	f.Add([]byte{
		0, 0, 1, 1, 0, 2, 0, 7, 0, 50, 0, 1, 1, 1, 0, 2, 1, 2, 0, 40,
		4, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 2, 7, 100, 60,
	})
	// Gauges over spans of 1 and 3 windows (opcodes 7 and 17), then a
	// one-window reading inside the first span.
	f.Add([]byte{0, 1, 0, 1, 0, 7, 0, 2, 128, 9, 17, 0, 5, 0, 7, 2, 0, 3, 10, 1})
	// An over-SLO latency sample in each of windows 0-18: sealing windows
	// 0-17 trips 18 burn-rate dumps, two past the dump cap.
	burn := []byte{0, 10, 1, 2, 0}
	for w := byte(0); w <= 18; w++ {
		burn = append(burn, 3, 0, w, 0, 200)
	}
	f.Add(burn)
	// Offloads and a recall for one tenant in three classes with conserving
	// checkpoints (two in window 2, around a flow), then a checkpoint off by
	// 3 pages in window 4: the audit flags window 4 and, through the carry,
	// window 5.
	f.Add([]byte{
		flowOps, 10, 2, 0, 4, flowOps + 1, 0, 2, 0, 0, flowOps, 20, 2, 9, 2, flowOps + 1, 0, 2, 0, 0,
		flowOps, 1, 3, 0, 1, flowOps + 1, 0, 3, 0, 0, flowOps, 30, 4, 0, 5, flowOps + 1, 0, 4, 0, 3,
		flowOps, 0, 5, 0, 1, flowOps + 1, 0, 5, 0, 0,
	})
	// Flows and checkpoints in windows 1 and 6, a new run, then a flow into
	// the same cell of window 1, a checkpoint in window 6 and a new key in
	// window 1: the cell adds up across runs, and the audit reports itself
	// merged.
	f.Add([]byte{
		flowOps, 10, 1, 0, 8, flowOps + 1, 0, 1, 0, 0, flowOps, 13, 6, 0, 1, flowOps + 1, 0, 6, 0, 0,
		4, 0, 0, 0, 0, flowOps, 10, 1, 0, 2, flowOps + 1, 0, 6, 0, 0, flowOps, 32, 1, 0, 3,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 64 ops reach every window, series and cap several times over;
		// the bound keeps one input's run, and so its minimization, short.
		data = data[:min(len(data), 64*5)]
		d := &diffTarget{rec: NewRecorder(diffConfig), ref: newRefRecorder(diffConfig)}
		for i := 0; i+5 <= len(data); i += 5 {
			op, a, b, c, v := data[i], data[i+1], data[i+2], data[i+3], data[i+4]
			var k seriesKey
			var id SeriesID
			if len(d.ids) > 0 {
				h := int(a) % len(d.ids)
				k, id = d.keys[h], d.ids[h]
			}
			win := simtime.Time(b % 24)
			at := win*diffConfig.Window + simtime.Time(c)*diffConfig.Window/256
			if op >= flowOps {
				if op%2 == 0 {
					// a picks the kind and the key; v counts pages.
					kind := FlowKind(a % byte(NumFlows))
					fd := diffFlowDims[int(a/byte(NumFlows))%len(diffFlowDims)]
					d.rec.AddFlow(at, kind, fd, int64(v)<<12)
					d.ref.addFlow(at, kind, fd, int64(v)<<12)
				} else {
					// The occupancy the flows imply, or off by v pages.
					occ := d.ref.flowNet + int64(v)<<12
					d.rec.FlowOccupancy(at, occ)
					d.ref.flowOccupancy(at, occ)
				}
				d.checkFlows(t, "flows")
				continue
			}
			switch op % 5 {
			case 0:
				k := seriesKey{name: diffNames[int(a)%len(diffNames)], dims: diffDims[int(b)%len(diffDims)]}
				kind := SeriesKind(c % 3)
				d.ids = append(d.ids, d.rec.Series(k.name, k.dims, kind))
				d.keys = append(d.keys, k)
				d.ref.resolve(k, kind)
			case 1:
				if id != 0 {
					d.rec.AddCounter(at, id, int64(int8(v)))
					d.ref.counter(at, k, int64(int8(v)))
				}
			case 2:
				// The opcode's bits above the op pick a span of 0-3 windows.
				to := at + simtime.Time(op/5%4)*diffConfig.Window
				if id != 0 {
					d.rec.SetGauge(at, to, id, int64(v)<<20)
					d.ref.gauge(at, to, k, int64(v)<<20)
				}
			case 3:
				if id != 0 {
					// Up to 2 s, so samples reach the 1 s SLO.
					lat := time.Duration(v) * 8 * time.Millisecond
					d.rec.ObserveLatency(at, id, lat)
					d.ref.latency(at, k, int64(lat))
				}
			case 4:
				d.rec.StartRun()
				d.ref.startRun()
			}
		}
		d.check(t, "recorder")
	})
}
