package simtime

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// samplerRec is one entry of a sampler-vs-ticker log: a sample at a
// boundary (id -1) with the number of other events fired before it, or
// another event's firing (state is unused).
type samplerRec struct {
	at    Time
	id    int
	state int
}

// runSamplerProgram interprets a byte program on a fresh engine whose
// periodic sampling is a per-period Ticker (sampler false) or a Sampler
// (sampler true), and returns the log. data[0] picks the period, data[1]
// the instant the sampling is armed at (possibly off the period grid).
// Every op then draws its arguments from the following bytes:
//
//	0, 1  schedule an event a short delay from now
//	2     schedule an event exactly on a sampling boundary
//	3     schedule an event whose callback schedules a follow-up, either on
//	      a boundary or a short delay later (scheduled after earlier ticks)
//	4     cancel an earlier event (possibly fired or cancelled already)
//	5     Step
//	6     RunUntil a deadline off the boundary grid
//	7     RunUntil a deadline on a boundary
//
// The program ends with a RunUntil a few periods past the last event.
func runSamplerProgram(data []byte, sampler bool) []samplerRec {
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	period := Time(1+next()%8) * 250 * time.Microsecond
	e := NewEngine()
	e.RunUntil(Time(next()) * 100 * time.Microsecond)
	armed := e.Now()

	var log []samplerRec
	fired := 0
	if sampler {
		NewSampler(e, period, func(from, to Time) {
			for b := from; b <= to; b += period {
				log = append(log, samplerRec{at: b, id: -1, state: fired})
			}
		})
	} else {
		NewTicker(e, period, func(e *Engine) {
			log = append(log, samplerRec{at: e.Now(), id: -1, state: fired})
		})
	}
	// boundary returns the k-th sampling boundary after now (k >= 1).
	boundary := func(k byte) Time {
		n := (e.Now()-armed)/period + 1 + Time(k%8)
		return armed + n*period
	}
	short := func(a, b byte) Time { return Time(int(a)<<8|int(b)) * 5 * time.Microsecond }

	nextID := 0
	var handles []Handle
	schedule := func(at Time, fn func(e *Engine)) {
		id := nextID
		nextID++
		handles = append(handles, e.At(at, func(e *Engine) {
			fired++
			log = append(log, samplerRec{at: e.Now(), id: id})
			if fn != nil {
				fn(e)
			}
		}))
	}
	for steps := 0; i < len(data) && steps < 1024; steps++ {
		switch next() % 8 {
		case 0, 1:
			schedule(e.Now()+short(next(), next()), nil)
		case 2:
			schedule(boundary(next()), nil)
		case 3:
			onBoundary, k, a, b := next()%2 == 0, next(), next(), next()
			schedule(e.Now()+short(a, 0), func(e *Engine) {
				if onBoundary {
					schedule(boundary(k), nil)
				} else {
					schedule(e.Now()+short(b, 0), nil)
				}
			})
		case 4:
			if len(handles) > 0 {
				e.Cancel(handles[int(next())%len(handles)])
			}
		case 5:
			e.Step()
		case 6:
			e.RunUntil(boundary(next()) - 1 - short(0, next())%period)
		case 7:
			e.RunUntil(boundary(next()))
		}
	}
	last := e.Now()
	for _, h := range handles {
		if h.Pending() {
			last = max(last, h.At())
		}
	}
	e.RunUntil(last + 3*period)
	return log
}

// checkSamplerProgram requires the Sampler to log the same samples and the
// same event order as the per-period Ticker on one program.
func checkSamplerProgram(t *testing.T, data []byte) {
	t.Helper()
	want := runSamplerProgram(data, false)
	got := runSamplerProgram(data, true)
	if !slices.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Fatalf("sampler diverges from ticker at record %d of %d/%d:\n got %v\nwant %v",
			n, len(got), len(want), got[n:min(len(got), n+6)], want[n:min(len(want), n+6)])
	}
}

// FuzzSamplerVsTicker holds a Sampler to a per-period Ticker on random
// schedules: the same (boundary, state) samples and the same firing order
// for every other event. The seeds cover events exactly on boundaries
// scheduled before and after the previous tick, deadlines on and off a
// boundary, RunUntil in stages with events scheduled between the calls,
// Step, and cancelled events.
func FuzzSamplerVsTicker(f *testing.F) {
	f.Add([]byte{})
	// Boundary events scheduled ahead of time, then one long RunUntil.
	f.Add([]byte{0, 0, 2, 3, 2, 0, 2, 7, 7, 7})
	// Off-grid arming, boundary events from callbacks (after the tick).
	f.Add([]byte{3, 7, 3, 0, 2, 9, 9, 3, 0, 5, 4, 4, 7, 5, 7, 7})
	// Deadlines on and off a boundary in stages, events scheduled between.
	f.Add([]byte{1, 0, 6, 3, 50, 2, 1, 7, 2, 0, 40, 0, 6, 0, 200, 7, 4, 2, 5, 6, 7, 0})
	// Step between RunUntils, with boundary events pending.
	f.Add([]byte{2, 3, 2, 1, 5, 5, 2, 4, 5, 7, 1, 5, 0, 0, 9, 5, 7, 6})
	// Cancelled boundary and short events.
	f.Add([]byte{4, 1, 2, 2, 2, 5, 0, 1, 1, 4, 0, 4, 1, 6, 7, 7, 4, 2, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSamplerProgram(t, data[:min(len(data), 1024)])
	})
}

func TestSamplerMatchesTickerRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 8+rng.Intn(256))
		rng.Read(data)
		checkSamplerProgram(t, data)
	}
}

// TestSamplerCoalescesQuietSpans pins the event count: quiet boundaries up
// to the RunUntil deadline fire once, a boundary that coincides with another
// event fires on its own after that event, and Step never coalesces.
func TestSamplerCoalescesQuietSpans(t *testing.T) {
	e := NewEngine()
	var spans [][2]Time
	NewSampler(e, time.Second, func(from, to Time) { spans = append(spans, [2]Time{from, to}) })
	e.At(5*time.Second, func(e *Engine) { spans = append(spans, [2]Time{-1, e.Now()}) })
	e.RunUntil(10 * time.Second)
	e.Step()
	e.Step()
	e.RunUntil(12*time.Second + time.Millisecond)
	want := [][2]Time{
		{1 * time.Second, 4 * time.Second},
		{-1, 5 * time.Second},
		{5 * time.Second, 10 * time.Second},
		{11 * time.Second, 11 * time.Second},
		{12 * time.Second, 12 * time.Second},
	}
	if !slices.Equal(spans, want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}
