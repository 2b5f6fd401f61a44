package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// The differential harness drives the timer-wheel Engine and the heap
// Reference through the same program of schedule/cancel/reschedule/step/
// arrivals operations and asserts both fire the exact same (time, id)
// sequence with the same Fired() count after every step.

// fireRec is one observed firing.
type fireRec struct {
	at Time
	id int
}

// testEngine adapts Engine and Reference to a common driving surface.
type testEngine interface {
	now() Time
	// schedule returns a cancel thunk and a pending probe for the new event.
	schedule(at Time, fn func()) (cancel func(), pending func() bool)
	// arrivals schedules fn at every time in times: Engine.Arrivals on
	// the wheel, one At per time in index order on the Reference.
	arrivals(times []Time, fn func())
	fired() uint64
	step() bool
	run()
	runUntil(Time)
	pendingCount() int
}

type wheelAdapter struct{ e *Engine }

func (a wheelAdapter) now() Time { return a.e.Now() }
func (a wheelAdapter) schedule(at Time, fn func()) (func(), func() bool) {
	h := a.e.At(at, func(*Engine) { fn() })
	return func() { a.e.Cancel(h) }, h.Pending
}
func (a wheelAdapter) arrivals(times []Time, fn func()) {
	a.e.Arrivals(times, func(*Engine) { fn() })
}
func (a wheelAdapter) fired() uint64     { return a.e.Fired() }
func (a wheelAdapter) step() bool        { return a.e.Step() }
func (a wheelAdapter) run()              { a.e.Run() }
func (a wheelAdapter) runUntil(d Time)   { a.e.RunUntil(d) }
func (a wheelAdapter) pendingCount() int { return a.e.Pending() }

type refAdapter struct{ e *Reference }

func (a refAdapter) now() Time { return a.e.Now() }
func (a refAdapter) schedule(at Time, fn func()) (func(), func() bool) {
	ev := a.e.At(at, func(*Reference) { fn() })
	return func() { a.e.Cancel(ev) }, ev.Pending
}
func (a refAdapter) arrivals(times []Time, fn func()) {
	for _, at := range times {
		a.e.At(at, func(*Reference) { fn() })
	}
}
func (a refAdapter) fired() uint64     { return a.e.Fired() }
func (a refAdapter) step() bool        { return a.e.Step() }
func (a refAdapter) run()              { a.e.Run() }
func (a refAdapter) runUntil(d Time)   { a.e.RunUntil(d) }
func (a refAdapter) pendingCount() int { return a.e.Pending() }

// decodeDelay turns three program bytes into a delay spanning every wheel
// level: sub-millisecond through multi-hour spill territory.
func decodeDelay(a, b, c byte) time.Duration {
	base := time.Duration(a)<<8 | time.Duration(b)
	shl := uint(c) % 36 // up to base<<35 ns ≈ 2250 h at base 65535... clamped below
	d := base << shl
	const maxDelay = 1000 * time.Hour
	if d < 0 || d > maxDelay {
		d = maxDelay
	}
	return d
}

// interpret runs one byte program against an engine, returning the firing
// log and the engine's Fired() count after every step, run-until and the
// final run. The interpretation is fully deterministic: ids are assigned in
// program order, and follow-up events scheduled from inside callbacks, and
// arrivals as they fire, take ids from the same counter — so any ordering
// divergence between two engines shows up directly in the logs.
func interpret(data []byte, eng testEngine) (log []fireRec, fired []uint64) {
	nextID := 0
	type handle struct {
		cancel  func()
		pending func() bool
	}
	var handles []handle

	var schedule func(at Time, id, chain int)
	schedule = func(at Time, id, chain int) {
		c, p := eng.schedule(at, func() {
			log = append(log, fireRec{at: at, id: id})
			if chain > 0 {
				// Follow-up from inside the callback, including same-time
				// follow-ups (delay 0) that must honor seq order.
				d := time.Duration(id%3) * 500 * time.Microsecond
				fid := nextID
				nextID++
				schedule(eng.now()+d, fid, chain-1)
			}
		})
		handles = append(handles, handle{cancel: c, pending: p})
	}

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	steps := 0
	for i < len(data) && steps < 4096 {
		steps++
		op := next() % 9
		switch op {
		case 0, 1, 2: // schedule (weighted: most common op)
			d := decodeDelay(next(), next(), next())
			id := nextID
			nextID++
			schedule(eng.now()+d, id, 0)
		case 3: // schedule a callback chain
			d := decodeDelay(next(), next(), next())
			chain := int(next() % 4)
			id := nextID
			nextID++
			schedule(eng.now()+d, id, chain)
		case 4: // cancel an arbitrary handle (possibly stale/fired)
			if len(handles) > 0 {
				handles[int(next())%len(handles)].cancel()
			}
		case 5: // reschedule: cancel then schedule at a fresh time
			if len(handles) > 0 {
				handles[int(next())%len(handles)].cancel()
			}
			d := decodeDelay(next(), next(), next())
			id := nextID
			nextID++
			schedule(eng.now()+d, id, 0)
		case 6: // fire one event
			eng.step()
			fired = append(fired, eng.fired())
		case 7: // run up to a deadline
			eng.runUntil(eng.now() + decodeDelay(next(), next(), next()))
			fired = append(fired, eng.fired())
		case 8: // an arrival timeline: unsorted, with duplicate times
			base := eng.now() + decodeDelay(next(), next(), next())
			times := make([]Time, 1+next()%16)
			for k := range times {
				// An offset byte with low bits 0 repeats base; the
				// rest scatter up to ~6 s either side of sorted.
				b := next()
				times[k] = base + Time(b&3)<<(b>>2&31)
			}
			eng.arrivals(times, func() {
				id := nextID
				nextID++
				log = append(log, fireRec{at: eng.now(), id: id})
				if id%2 == 0 {
					// A follow-up at the same instant (id%3 == 0)
					// or just after, behind later arrivals' ties.
					fid := nextID
					nextID++
					schedule(eng.now()+time.Duration(id%3)*500*time.Microsecond, fid, 0)
				}
			})
		}
	}
	eng.run()
	fired = append(fired, eng.fired())
	return log, fired
}

// runBoth interprets the program on both engines and fails the test on any
// divergence in the firing sequence.
func runBoth(t *testing.T, data []byte) {
	t.Helper()
	got, gotFired := interpret(data, wheelAdapter{NewEngine()})
	want, wantFired := interpret(data, refAdapter{NewReference()})
	if len(got) != len(want) {
		t.Fatalf("wheel fired %d events, reference fired %d\nwheel: %v\nref:   %v", len(got), len(want), tail(got), tail(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d diverges: wheel (at=%v id=%d) vs reference (at=%v id=%d)",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
	for i := range wantFired {
		if gotFired[i] != wantFired[i] {
			t.Fatalf("Fired() after run %d diverges: wheel %d vs reference %d", i, gotFired[i], wantFired[i])
		}
	}
}

func tail(r []fireRec) []fireRec {
	if len(r) > 12 {
		return r[len(r)-12:]
	}
	return r
}

func TestEngineMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 300; trial++ {
		n := 16 + rng.Intn(512)
		data := make([]byte, n)
		rng.Read(data)
		runBoth(t, data)
	}
}

// TestEngineMatchesReferenceBoundaries drives schedules that land exactly on
// wheel bucket and window boundaries, where cascade and window-handoff bugs
// live.
func TestEngineMatchesReferenceBoundaries(t *testing.T) {
	boundaries := []time.Duration{
		0, 1,
		1 << shift0, 1<<shift0 - 1, 1<<shift0 + 1,
		1 << shift1, 1<<shift1 - 1, 1<<shift1 + 1,
		1 << shift2, 1<<shift2 - 1, 1<<shift2 + 1,
		1 << shift3, 1<<shift3 - 1, 1<<shift3 + 1,
		255 << shift0, 256 << shift0, 255 << shift1, 255 << shift2,
		3 << shift3, 3<<shift3 + 5<<shift1,
	}
	we, re := NewEngine(), NewReference()
	var wlog, rlog []fireRec
	for i, d := range boundaries {
		id := i
		at := d
		we.At(at, func(*Engine) { wlog = append(wlog, fireRec{at, id}) })
		re.At(at, func(*Reference) { rlog = append(rlog, fireRec{at, id}) })
	}
	// Duplicate every boundary to exercise (time, seq) ties across levels.
	for i, d := range boundaries {
		id := 1000 + i
		at := d
		we.At(at, func(*Engine) { wlog = append(wlog, fireRec{at, id}) })
		re.At(at, func(*Reference) { rlog = append(rlog, fireRec{at, id}) })
	}
	we.Run()
	re.Run()
	if len(wlog) != len(rlog) {
		t.Fatalf("wheel fired %d, reference %d", len(wlog), len(rlog))
	}
	for i := range rlog {
		if wlog[i] != rlog[i] {
			t.Fatalf("firing %d diverges: wheel %v vs reference %v", i, wlog[i], rlog[i])
		}
	}
}

// TestEngineCancelEdgeCases covers cancellation in every internal state:
// bucket-linked, spill-heap, drained-into-ready, and stale handles.
func TestEngineCancelEdgeCases(t *testing.T) {
	t.Run("cancel in ready run", func(t *testing.T) {
		e := NewEngine()
		var fired []int
		var h2 Handle
		// Both land in the same L0 bucket; firing the first drains the
		// second into the ready run, then cancels it.
		e.At(10*time.Microsecond, func(e *Engine) {
			fired = append(fired, 1)
			e.Cancel(h2)
		})
		h2 = e.At(20*time.Microsecond, func(*Engine) { fired = append(fired, 2) })
		e.Run()
		if len(fired) != 1 || fired[0] != 1 {
			t.Fatalf("fired = %v, want [1]", fired)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d, want 0", e.Pending())
		}
	})
	t.Run("cancel in spill heap", func(t *testing.T) {
		e := NewEngine()
		fired := 0
		h := e.At(100*time.Hour, func(*Engine) { fired++ })
		if !h.Pending() {
			t.Fatal("spill event should be pending")
		}
		e.Cancel(h)
		if h.Pending() {
			t.Fatal("cancelled spill event still pending")
		}
		e.At(200*time.Hour, func(*Engine) { fired++ })
		e.Run()
		if fired != 1 {
			t.Fatalf("fired = %d, want 1", fired)
		}
	})
	t.Run("stale handle after recycling is inert", func(t *testing.T) {
		e := NewEngine()
		h1 := e.At(time.Millisecond, func(*Engine) {})
		e.Run() // fires and recycles the event storage
		fired := false
		h2 := e.At(2*time.Millisecond, func(*Engine) { fired = true })
		e.Cancel(h1) // stale: must not cancel the recycled h2 event
		e.Run()
		if !fired {
			t.Fatal("stale Cancel affected a recycled event")
		}
		if h2.Pending() {
			t.Fatal("fired event still pending")
		}
	})
	t.Run("zero handle", func(t *testing.T) {
		e := NewEngine()
		var h Handle
		e.Cancel(h)
		if h.Pending() {
			t.Fatal("zero handle pending")
		}
		if h.At() != 0 {
			t.Fatal("zero handle At != 0")
		}
	})
	t.Run("reschedule same time preserves seq order", func(t *testing.T) {
		e := NewEngine()
		var order []int
		at := 5 * time.Millisecond
		e.At(at, func(*Engine) { order = append(order, 0) })
		h := e.At(at, func(*Engine) { order = append(order, 1) })
		e.At(at, func(*Engine) { order = append(order, 2) })
		e.Cancel(h)
		// The rescheduled event takes a fresh seq: it must fire last.
		e.At(at, func(*Engine) { order = append(order, 1) })
		e.Run()
		want := []int{0, 2, 1}
		if len(order) != len(want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

// TestEngineScheduleIntoDrainedBucket fires an event that schedules new work
// earlier than the already-drained bucket end: the new events must merge
// into the sorted ready run, not wait for the next bucket.
func TestEngineScheduleIntoDrainedBucket(t *testing.T) {
	e := NewEngine()
	var fired []fireRec
	base := 100 * time.Microsecond
	e.At(base, func(e *Engine) {
		fired = append(fired, fireRec{base, 0})
		// Same L0 bucket, after now but before the drained-bucket end.
		e.After(50*time.Microsecond, func(e *Engine) {
			fired = append(fired, fireRec{e.Now(), 1})
		})
		e.After(0, func(e *Engine) {
			fired = append(fired, fireRec{e.Now(), 2})
		})
	})
	e.At(base+200*time.Microsecond, func(e *Engine) {
		fired = append(fired, fireRec{e.Now(), 3})
	})
	e.Run()
	want := []fireRec{
		{base, 0},
		{base, 2},
		{base + 50*time.Microsecond, 1},
		{base + 200*time.Microsecond, 3},
	}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestEngineSteadyStateZeroAlloc asserts the pool recycles events: a warm
// engine schedules and fires without allocating.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	// Warm the pool and the ready-run backing array.
	for i := 0; i < 256; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(time.Millisecond, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f allocs/op, want 0", avg)
	}
}
