package simtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Reference is the original container/heap event engine, kept verbatim as
// the executable specification of the scheduling contract: events fire in
// (time, seq) order, cancellation is exact, RunUntil advances the clock.
// Differential and fuzz tests (FuzzEngineVsReference) assert the timer-wheel
// Engine fires the exact same sequence. It allocates one *RefEvent per
// schedule and, living in a test file, is compiled only into this package's
// tests.
type Reference struct {
	now   Time
	queue refQueue
	seq   uint64
	fired uint64
}

// RefFunc is a callback executed when a Reference event fires.
type RefFunc func(e *Reference)

// RefEvent is a scheduled Reference callback. The zero RefEvent is inert.
type RefEvent struct {
	at     Time
	seq    uint64
	fn     RefFunc
	index  int // heap index, -1 when not queued
	fired  bool
	cancel bool
}

// At reports when the event is (or was) scheduled to fire.
func (ev *RefEvent) At() Time { return ev.at }

// Pending reports whether the event is still queued and will fire.
func (ev *RefEvent) Pending() bool { return ev != nil && ev.index >= 0 && !ev.cancel }

// refQueue implements heap.Interface over reference events.
type refQueue []*RefEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*RefEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// NewReference returns a reference engine positioned at virtual time 0.
func NewReference() *Reference { return &Reference{} }

// Now returns the current virtual time.
func (e *Reference) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Reference) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued.
func (e *Reference) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancel {
			n++
		}
	}
	return n
}

// At schedules fn at the absolute virtual time at. Scheduling in the past
// panics, exactly as on Engine.
func (e *Reference) At(at Time, fn RefFunc) *RefEvent {
	if fn == nil {
		panic("simtime: nil event func")
	}
	if at < e.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, e.now))
	}
	ev := &RefEvent{at: at, seq: e.seq, fn: fn, index: -1}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn after delay d from the current time, clamping negative
// delays to zero.
func (e *Reference) After(d time.Duration, fn RefFunc) *RefEvent {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes ev from the queue if it has not fired. Safe on nil, fired,
// or already-cancelled events.
func (e *Reference) Cancel(ev *RefEvent) {
	if ev == nil || ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
		ev.index = -1
	}
}

// Step executes the single earliest pending event, reporting false when the
// queue is empty.
func (e *Reference) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*RefEvent)
		if ev.cancel {
			continue
		}
		e.now = ev.at
		ev.fired = true
		e.fired++
		ev.fn(e)
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Reference) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with at <= deadline and then advances the clock
// to the deadline.
func (e *Reference) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *Reference) peek() *RefEvent {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.cancel {
			return ev
		}
		heap.Pop(&e.queue)
	}
	return nil
}
