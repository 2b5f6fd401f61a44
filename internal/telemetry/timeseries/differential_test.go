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
// clarity rather than speed. It covers the series, the flight recorder and
// the burn-rate alarm (fault-window triggers and the flow ledger are out of
// scope).
type refRecorder struct {
	cfg         Config
	kinds       map[seriesKey]SeriesKind
	cells       map[seriesKey]map[int64]*refCell
	flight      []FlightEvent
	flightTotal uint64
	alarmWin    int64
	alarmCount  int64
	alarmOver   int64
	alarmSeries string
	dumps       []Dump
	dropped     int
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
	if len(o.flight) > o.cfg.FlightCapacity {
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
		if v >= int64(o.cfg.SLO) {
			o.alarmOver++
		}
	}
	o.cell(k, at).sample(v)
	o.push(FlightEvent{At: at, Name: k.name, Dims: k.dims, Value: v})
}

func (o *refRecorder) seal(at simtime.Time) {
	if o.alarmCount > 0 && float64(o.alarmOver) >= o.cfg.BurnThreshold*float64(o.alarmCount) {
		o.dump(TriggerSLOBurn, o.alarmSeries, at)
	}
	o.alarmCount, o.alarmOver = 0, 0
}

func (o *refRecorder) dump(trigger Trigger, series string, at simtime.Time) {
	if len(o.dumps) >= o.cfg.MaxDumps {
		o.dropped++
		return
	}
	horizon := at - simtime.Time(o.cfg.FlightWindows)*o.cfg.Window
	var events []FlightEvent
	for _, ev := range o.flight {
		if ev.At >= horizon {
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
}

func (o *refRecorder) mergeFrom(src *refRecorder) {
	for k, wins := range src.cells {
		o.resolve(k, src.kinds[k])
		for win, c := range wins {
			d := o.cells[k][win]
			if d == nil {
				d = &refCell{min: c.min, max: c.max}
				o.cells[k][win] = d
			}
			d.min, d.max = min(d.min, c.min), max(d.max, c.max)
			d.count += c.count
			d.sum += c.sum
			d.last = c.last
			if c.buckets != nil {
				if d.buckets == nil {
					d.buckets = new(hist.Buckets)
				}
				d.buckets.Merge(c.buckets)
			}
		}
	}
	for _, ev := range src.flight {
		o.push(ev)
	}
	o.flightTotal += src.flightTotal - uint64(len(src.flight))
	for _, d := range src.dumps {
		if len(o.dumps) >= o.cfg.MaxDumps {
			o.dropped++
			continue
		}
		o.dumps = append(o.dumps, d)
	}
	o.dropped += src.dropped
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
)

// diffConfig keeps the flight ring and dump cap small so a short input
// overflows both, and the SLO low so latency samples trip the alarm.
var diffConfig = Config{
	Window: time.Second, FlightWindows: 2, FlightCapacity: 16,
	SLO: 100 * time.Millisecond, BurnThreshold: 0.5, MaxDumps: 4,
}

// diffTarget is one recorder under test beside its reference, plus the
// series it has resolved so far (handle i resolves keys[i] to ids[i]).
type diffTarget struct {
	rec  *Recorder
	ref  *refRecorder
	ids  []SeriesID
	keys []seriesKey
}

func newDiffTarget() *diffTarget {
	return &diffTarget{rec: NewRecorder(diffConfig), ref: newRefRecorder(diffConfig)}
}

// check requires the recorder's exports to equal the reference's.
func (d *diffTarget) check(t *testing.T, label string) {
	t.Helper()
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
	var got, want bytes.Buffer
	if err := WriteText(&got, d.rec); err != nil {
		t.Fatal(err)
	}
	if err := writeText(&want, d.ref.cfg.Window, sum, nil, d.ref.dumps, d.ref.dropped); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: WriteText\n got:\n%s\nwant:\n%s", label, got.String(), want.String())
	}
}

// FuzzRecorderDifferential drives the dense recorder and the map-keyed
// reference with the same operations and requires identical exports. Each
// op is five bytes: an opcode whose high bit picks the target (a shard or
// the sink it merges into), then four arguments. The opcodes resolve a
// series, emit a counter, gauge or latency sample by a resolved handle at a
// window and offset (a gauge over a span of windows), start a new run (so
// later emits revisit windows), or merge the shard into the sink and start
// a fresh shard.
func FuzzRecorderDifferential(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 0, 1, 0, 3, 0, 5, 0, 10, 1, 0, 0, 1, 0, 3, 0, 2})
	f.Add([]byte{
		0, 10, 2, 2, 0, 3, 0, 0, 9, 200, 3, 0, 1, 9, 200, 3, 0, 2, 9, 200,
		4, 0, 0, 0, 0, 3, 0, 0, 3, 150, 3, 0, 1, 0, 150, 5, 0, 0, 0, 0,
	})
	f.Add([]byte{
		0, 0, 1, 1, 0, 2, 0, 7, 0, 50, 128, 1, 1, 1, 0, 130, 0, 2, 0, 40,
		5, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 7, 100, 60, 5, 0, 0, 0, 0,
	})
	// Gauges over spans of 1 and 3 windows (opcodes 8 and 20), then a
	// one-window reading inside the first span.
	f.Add([]byte{0, 1, 0, 1, 0, 8, 0, 2, 128, 9, 20, 0, 5, 0, 7, 2, 0, 3, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 64 ops reach every window, series and cap several times over;
		// the bound keeps one input's run, and so its minimization, short.
		data = data[:min(len(data), 64*5)]
		shard, sink := newDiffTarget(), newDiffTarget()
		for i := 0; i+5 <= len(data); i += 5 {
			op, a, b, c, v := data[i], data[i+1], data[i+2], data[i+3], data[i+4]
			d := shard
			if op&0x80 != 0 {
				d = sink
			}
			var k seriesKey
			var id SeriesID
			if len(d.ids) > 0 {
				h := int(a) % len(d.ids)
				k, id = d.keys[h], d.ids[h]
			}
			win := simtime.Time(b % 24)
			at := win*diffConfig.Window + simtime.Time(c)*diffConfig.Window/256
			switch op & 0x7f % 6 {
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
				to := at + simtime.Time(op&0x7f/6%4)*diffConfig.Window
				if id != 0 {
					d.rec.SetGauge(at, to, id, int64(v)<<20)
					d.ref.gauge(at, to, k, int64(v)<<20)
				}
			case 3:
				if id != 0 {
					lat := time.Duration(v) * time.Millisecond
					d.rec.ObserveLatency(at, id, lat)
					d.ref.latency(at, k, int64(lat))
				}
			case 4:
				d.rec.StartRun()
				d.ref.startRun()
			case 5:
				if err := sink.rec.MergeFrom(shard.rec); err != nil {
					t.Fatal(err)
				}
				sink.ref.mergeFrom(shard.ref)
				shard.check(t, "merged shard")
				shard = newDiffTarget()
			}
		}
		shard.check(t, "shard")
		sink.check(t, "sink")
	})
}
