package simtime

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		e.At(d, func(e *Engine) { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (ties must fire in insertion order)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fireTime Time
	e.At(2*time.Second, func(e *Engine) {
		e.After(3*time.Second, func(e *Engine) { fireTime = e.Now() })
	})
	e.Run()
	if fireTime != 5*time.Second {
		t.Fatalf("nested After fired at %v, want 5s", fireTime)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func(e *Engine) {
		ev := e.After(-time.Second, func(*Engine) {})
		if ev.At() != time.Second {
			t.Errorf("negative After scheduled at %v, want now (1s)", ev.At())
		}
	})
	e.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Second, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(time.Second, func(*Engine) {})
	})
	e.Run()
}

// TestArrivalsKeepOnePending checks that Engine.Arrivals keeps one event
// pending however long the timeline, fires unsorted times in time order
// without reordering the caller's slice, and breaks a tie with an event
// scheduled after the call the way an At per time would: by the arrival's
// reserved number.
func TestArrivalsKeepOnePending(t *testing.T) {
	e := NewEngine()
	times := []Time{3 * time.Second, time.Second, 3 * time.Second, time.Second, 2 * time.Second}
	given := slices.Clone(times)
	// An arrival logs its time; the later At logs its time negated.
	var order []Time
	e.Arrivals(times, func(e *Engine) { order = append(order, e.Now()) })
	e.At(time.Second, func(e *Engine) { order = append(order, -e.Now()) })
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after scheduling, want 2", e.Pending())
	}
	e.Run()
	s := time.Second
	if want := []Time{s, s, -s, 2 * s, 3 * s, 3 * s}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if !slices.Equal(times, given) {
		t.Fatalf("Arrivals reordered the caller's times: %v", times)
	}
	if e.Fired() != 6 {
		t.Fatalf("Fired() = %d, want 6", e.Fired())
	}
}

func TestArrivalsInPastPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("an arrival before now did not panic")
		}
	}()
	e.Arrivals([]Time{20 * time.Second, time.Second}, func(*Engine) {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event func did not panic")
		}
	}()
	NewEngine().At(0, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(time.Second, func(*Engine) { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending before cancel")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event should not be pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	e := NewEngine()
	ev := e.At(time.Second, func(*Engine) {})
	e.Cancel(ev)
	e.Cancel(ev) // second cancel must not panic
	e.Cancel(Handle{})
	e.Run()
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.At(time.Second, func(*Engine) {})
	e.Run()
	e.Cancel(ev) // must not panic
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		e.At(d*time.Second, func(e *Engine) { fired = append(fired, e.Now()) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v after RunUntil(3s)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	// Continuing afterwards runs the rest.
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", e.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i)*time.Second, func(*Engine) {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tk := NewTicker(e, time.Second, func(e *Engine) {
		fires = append(fires, e.Now())
		if len(fires) == 4 {
			// stop from inside the callback
		}
	})
	e.RunUntil(4 * time.Second)
	tk.Stop()
	e.Run()
	want := []Time{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired %d times, want %d: %v", len(fires), len(want), fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, time.Second, func(*Engine) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	e := NewEngine()
	tk := NewTicker(e, time.Second, func(*Engine) {})
	tk.Stop()
	tk.Stop()
	e.Run()
	if e.Fired() != 0 {
		t.Fatalf("stopped ticker fired %d events", e.Fired())
	}
}

func TestTickerResetRearms(t *testing.T) {
	e := NewEngine()
	var fires []Time
	var tk *Ticker
	tk = NewTicker(e, time.Second, func(e *Engine) {
		fires = append(fires, e.Now())
		if len(fires) == 2 {
			tk.Stop()
		}
	})
	e.RunUntil(5 * time.Second)
	// Rearm a stopped ticker at a new period, then rearm a running one: the
	// pending firing moves rather than doubling.
	tk.Reset(2 * time.Second)
	e.RunUntil(8 * time.Second)
	tk.Reset(3 * time.Second)
	tk.Reset(3 * time.Second)
	e.RunUntil(14 * time.Second)
	tk.Stop()
	e.Run()
	want := []Time{1 * time.Second, 2 * time.Second, 7 * time.Second, 11 * time.Second, 14 * time.Second}
	if !slices.Equal(fires, want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	if n := testing.AllocsPerRun(10, func() { tk.Reset(time.Second); tk.Stop() }); n != 0 {
		t.Fatalf("Reset allocates %v times per call, want 0", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero ticker period did not panic")
		}
	}()
	NewTicker(NewEngine(), 0, func(*Engine) {})
}

// TestRandomScheduleIsSorted is a property test: any random batch of events
// fires in nondecreasing time order.
func TestRandomScheduleIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []Time
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			e.At(Time(rng.Int63n(int64(time.Hour))), func(e *Engine) {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), n)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: events fired out of order: %v", trial, fired)
		}
	}
}

// TestDeterminism: two runs with identical schedules observe identical
// interleavings.
func TestDeterminism(t *testing.T) {
	runOnce := func() []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(7))
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(Time(rng.Int63n(1000))*time.Millisecond, func(*Engine) { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	evs := make([]Handle, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i)*time.Second, func(*Engine) { fired = append(fired, i) })
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(fired), fired)
	}
	for _, v := range fired {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}
