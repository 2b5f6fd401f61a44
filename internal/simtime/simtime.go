// Package simtime provides the virtual clock and deterministic event queue
// that drive every simulation in this repository.
//
// All experiments run in virtual time: an Engine owns a pending-event set
// ordered by (time, sequence number). Ties are broken by insertion order, so
// a simulation with a fixed seed is fully deterministic and repeatable.
// Nothing in this package touches the wall clock.
//
// The Engine is a hierarchical timer wheel: near-future events live in
// ~1 ms buckets, farther events in coarser levels, and far-future events in
// a sorted spill heap. Events are recycled through a free list, so
// steady-state scheduling allocates nothing. The test-only Reference
// (reference_test.go) preserves the original container/heap engine;
// differential tests assert both fire the exact same sequence. See
// DESIGN.md "Event engine".
package simtime

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Time is an absolute instant on the virtual timeline, expressed as a
// duration since the simulation epoch (t = 0). It intentionally reuses
// time.Duration so that callers can write 5*time.Second for offsets.
type Time = time.Duration

// Func is a callback executed when an event fires. It receives the engine so
// that handlers can schedule follow-up events.
type Func func(e *Engine)

// Wheel geometry. Level 0 buckets are 2^shift0 ns wide (~1.05 ms); each
// higher level is 256x coarser. One aligned window per level:
//
//	L0: 256 buckets of ~1.05 ms  -> covers the current ~268 ms L1 bucket
//	L1: 256 buckets of ~268 ms   -> covers the current ~68.7 s L2 bucket
//	L2: 256 buckets of ~68.7 s   -> covers the current ~4.9 h span
//
// Events beyond the L2 window wait in the spill heap and are re-homed when
// the cursor enters their span.
const (
	slotBits   = 8
	wheelSlots = 1 << slotBits
	slotMask   = wheelSlots - 1
	shift0     = 20
	shift1     = shift0 + slotBits
	shift2     = shift1 + slotBits
	shift3     = shift2 + slotBits
	numLevels  = 3

	// eventBlock is how many pooled events are allocated at once when the
	// free list runs dry.
	eventBlock = 64
)

// event states.
const (
	stFree      uint8 = iota // on the free list
	stBucket                 // linked into a wheel bucket
	stReady                  // in the sorted ready run
	stSpill                  // in the far-future spill heap
	stCancelled              // cancelled while in the ready run; reclaimed at drain
)

// event is a pooled scheduled callback. Callers never see *event directly;
// they hold a stamped Handle so that recycling an event invalidates every
// outstanding reference to its previous life.
type event struct {
	at         Time
	seq        uint64
	stamp      uint64
	fn         Func
	next, prev *event // bucket list links; next doubles as the free-list link
	heapIdx    int32  // spill heap index while state == stSpill
	slot       int16  // level*wheelSlots + slot while state == stBucket
	state      uint8
}

// Handle refers to a scheduled event. The zero Handle is inert: Cancel is a
// no-op and Pending reports false. Handles stay safe after the event fires
// or is cancelled — the underlying storage is recycled with a new stamp, so
// a stale Handle can never affect a later event.
type Handle struct {
	ev    *event
	stamp uint64
}

func (h Handle) live() bool { return h.ev != nil && h.ev.stamp == h.stamp }

// Pending reports whether the event is still queued and will fire.
func (h Handle) Pending() bool {
	if !h.live() {
		return false
	}
	switch h.ev.state {
	case stBucket, stReady, stSpill:
		return true
	}
	return false
}

// At reports when the event is scheduled to fire. It returns 0 once the
// event has fired or been cancelled (the storage may already be reused).
func (h Handle) At() Time {
	if h.live() {
		return h.ev.at
	}
	return 0
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use and starts at time 0.
type Engine struct {
	now   Time
	cur   Time // exclusive end of the region drained into the ready run
	seq   uint64
	fired uint64
	live  int // pending (non-cancelled) events

	// deadline is the bound of the RunUntil in progress, 0 outside one: no
	// event can be scheduled from outside the engine before it, which is
	// what lets a Sampler cover the boundaries up to it in one firing.
	deadline Time

	// ready is the sorted run of imminent events; ready[readyIdx:] is the
	// undrained remainder. Events scheduled before cur merge into it.
	ready    []*event
	readyIdx int

	buckets [numLevels][wheelSlots]*event
	bitmap  [numLevels][wheelSlots / 64]uint64
	spill   []*event

	free *event
}

// NewEngine returns an engine positioned at virtual time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far, which is useful both
// for tests and for loop-bound assertions in long simulations.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.live }

// At schedules fn at the absolute virtual time at. Scheduling in the past is
// a programming error and panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn Func) Handle {
	if fn == nil {
		panic("simtime: nil event func")
	}
	if at < e.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.live++
	e.place(ev)
	return Handle{ev: ev, stamp: ev.stamp}
}

// After schedules fn after delay d from the current time. Negative delays
// clamp to zero so that jittered offsets cannot move into the past.
func (e *Engine) After(d time.Duration, fn Func) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes the event from the queue if it has not fired. It is safe to
// cancel a zero, fired, or already-cancelled Handle.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.stamp != h.stamp {
		return
	}
	switch ev.state {
	case stBucket:
		e.unlink(ev)
		e.release(ev)
		e.live--
	case stSpill:
		e.spillRemove(int(ev.heapIdx))
		e.release(ev)
		e.live--
	case stReady:
		// Leave it in place in the sorted run; the drain loop reclaims it.
		ev.state = stCancelled
		e.live--
	}
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with at <= deadline and then advances the clock to
// the deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	outer := e.deadline
	e.deadline = deadline
	for {
		ev := e.pop()
		if ev == nil {
			break
		}
		if ev.at > deadline {
			e.unpop(ev)
			break
		}
		e.fire(ev)
	}
	e.deadline = outer
	if e.now < deadline {
		e.now = deadline
	}
}

// unpop returns the event pop just returned to the head of the queue: pop
// always returns from the ready run, so the slot just before readyIdx still
// belongs to it.
func (e *Engine) unpop(ev *event) {
	e.readyIdx--
	e.ready[e.readyIdx] = ev
}

// peek reports when the earliest pending event fires, without firing it.
func (e *Engine) peek() (Time, bool) {
	ev := e.pop()
	if ev == nil {
		return 0, false
	}
	e.unpop(ev)
	return ev.at, true
}

func (e *Engine) fire(ev *event) {
	fn, at := ev.fn, ev.at
	e.release(ev)
	e.live--
	e.fired++
	e.now = at
	fn(e)
}

// pop returns the earliest pending event, draining wheel buckets into the
// sorted ready run as the cursor advances. It returns nil when nothing is
// pending.
func (e *Engine) pop() *event {
	for {
		for e.readyIdx < len(e.ready) {
			ev := e.ready[e.readyIdx]
			e.readyIdx++
			if ev.state == stCancelled {
				e.release(ev)
				continue
			}
			return ev
		}
		e.ready = e.ready[:0]
		e.readyIdx = 0
		if e.live == 0 {
			return nil
		}
		if s, ok := e.scanBitmap(0, int(e.cur>>shift0)&slotMask); ok {
			e.drainL0(s)
			continue
		}
		if !e.climb() {
			return nil
		}
	}
}

// place files ev by distance from the cursor: the ready run for the already
// drained region, then wheel levels by aligned window, then the spill heap.
func (e *Engine) place(ev *event) {
	at := ev.at
	switch {
	case at < e.cur:
		e.insertReady(ev)
	case at>>shift1 == e.cur>>shift1:
		e.pushBucket(0, int(at>>shift0)&slotMask, ev)
	case at>>shift2 == e.cur>>shift2:
		e.pushBucket(1, int(at>>shift1)&slotMask, ev)
	case at>>shift3 == e.cur>>shift3:
		e.pushBucket(2, int(at>>shift2)&slotMask, ev)
	default:
		e.pushSpill(ev)
	}
}

// insertReady merges a newly scheduled event into the undrained remainder of
// the ready run. The new event carries the largest seq, so it sorts after
// every equal-time entry already present.
func (e *Engine) insertReady(ev *event) {
	lo, hi := e.readyIdx, len(e.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.ready[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ev.state = stReady
	e.ready = append(e.ready, nil)
	copy(e.ready[lo+1:], e.ready[lo:])
	e.ready[lo] = ev
}

// drainL0 moves one level-0 bucket into the ready run, sorted by (at, seq),
// and advances the cursor past it.
func (e *Engine) drainL0(slot int) {
	for ev := e.buckets[0][slot]; ev != nil; {
		nx := ev.next
		ev.next, ev.prev = nil, nil
		ev.state = stReady
		e.ready = append(e.ready, ev)
		ev = nx
	}
	e.buckets[0][slot] = nil
	e.bitmap[0][slot>>6] &^= 1 << uint(slot&63)
	if len(e.ready) > 1 {
		slices.SortFunc(e.ready, func(a, b *event) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
	}
	base := e.cur &^ (1<<shift1 - 1)
	e.advanceCur(base + Time(slot+1)<<shift0)
}

// climb advances the cursor to the next populated region: a later L1 bucket,
// a later L2 bucket, or the spill heap's next span. advanceCur performs the
// actual cascading at each boundary crossed. It reports false when nothing
// is pending anywhere.
func (e *Engine) climb() bool {
	if s, ok := e.scanBitmap(1, int(e.cur>>shift1)&slotMask); ok {
		e.advanceCur((e.cur &^ (1<<shift2 - 1)) + Time(s)<<shift1)
		return true
	}
	if s, ok := e.scanBitmap(2, int(e.cur>>shift2)&slotMask); ok {
		e.advanceCur((e.cur &^ (1<<shift3 - 1)) + Time(s)<<shift2)
		return true
	}
	if len(e.spill) > 0 {
		e.advanceCur(e.spill[0].at >> shift3 << shift3)
		return true
	}
	return false
}

// advanceCur moves the drain cursor, re-homing coarse events at every
// boundary it crosses: entering a new spill span pulls that span's events
// out of the heap, and entering a new L2/L1 bucket cascades that bucket one
// level down. Crossings always land exactly on the boundary (drainL0 and
// climb advance to bucket starts), so cascaded events can never fall behind
// the cursor. Cascading fills levels top-down: events for the cursor's own
// finer bucket are placed directly into lower levels by place().
func (e *Engine) advanceCur(c Time) {
	old := e.cur
	e.cur = c
	if w := c >> shift3; w != old>>shift3 {
		for len(e.spill) > 0 && e.spill[0].at>>shift3 == w {
			e.place(e.popSpillMin())
		}
	}
	if c>>shift2 != old>>shift2 {
		e.cascade(2, int(c>>shift2)&slotMask)
	}
	if c>>shift1 != old>>shift1 {
		e.cascade(1, int(c>>shift1)&slotMask)
	}
}

// cascade re-homes one coarse bucket's events one level down.
func (e *Engine) cascade(level, slot int) {
	ev := e.buckets[level][slot]
	e.buckets[level][slot] = nil
	e.bitmap[level][slot>>6] &^= 1 << uint(slot&63)
	for ev != nil {
		nx := ev.next
		ev.next, ev.prev = nil, nil
		e.place(ev)
		ev = nx
	}
}

func (e *Engine) pushBucket(level, slot int, ev *event) {
	head := e.buckets[level][slot]
	ev.prev = nil
	ev.next = head
	if head != nil {
		head.prev = ev
	}
	e.buckets[level][slot] = ev
	e.bitmap[level][slot>>6] |= 1 << uint(slot&63)
	ev.slot = int16(level*wheelSlots + slot)
	ev.state = stBucket
}

func (e *Engine) unlink(ev *event) {
	level, slot := int(ev.slot)>>slotBits, int(ev.slot)&slotMask
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		e.buckets[level][slot] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if e.buckets[level][slot] == nil {
		e.bitmap[level][slot>>6] &^= 1 << uint(slot&63)
	}
	ev.next, ev.prev = nil, nil
}

// scanBitmap returns the first non-empty slot >= from at the given level.
func (e *Engine) scanBitmap(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	w := from >> 6
	word := e.bitmap[level][w] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= wheelSlots/64 {
			return 0, false
		}
		word = e.bitmap[level][w]
	}
}

// Spill heap: a plain binary min-heap on (at, seq) for events beyond the L2
// window. heapIdx tracks positions so Cancel removes in O(log n).

func spillLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushSpill(ev *event) {
	ev.state = stSpill
	ev.heapIdx = int32(len(e.spill))
	e.spill = append(e.spill, ev)
	e.spillUp(len(e.spill) - 1)
}

func (e *Engine) popSpillMin() *event {
	top := e.spill[0]
	last := len(e.spill) - 1
	e.spill[0] = e.spill[last]
	e.spill[0].heapIdx = 0
	e.spill[last] = nil
	e.spill = e.spill[:last]
	if last > 0 {
		e.spillDown(0)
	}
	return top
}

func (e *Engine) spillRemove(i int) {
	last := len(e.spill) - 1
	if i != last {
		e.spill[i] = e.spill[last]
		e.spill[i].heapIdx = int32(i)
	}
	e.spill[last] = nil
	e.spill = e.spill[:last]
	if i < last {
		e.spillDown(i)
		e.spillUp(i)
	}
}

func (e *Engine) spillUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !spillLess(e.spill[i], e.spill[p]) {
			break
		}
		e.spillSwap(i, p)
		i = p
	}
}

func (e *Engine) spillDown(i int) {
	n := len(e.spill)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && spillLess(e.spill[r], e.spill[l]) {
			m = r
		}
		if !spillLess(e.spill[m], e.spill[i]) {
			break
		}
		e.spillSwap(i, m)
		i = m
	}
}

func (e *Engine) spillSwap(i, j int) {
	e.spill[i], e.spill[j] = e.spill[j], e.spill[i]
	e.spill[i].heapIdx = int32(i)
	e.spill[j].heapIdx = int32(j)
}

// Event pool. alloc hands out recycled events; release bumps the stamp so
// outstanding Handles to the previous life go inert, then returns the event
// to the free list. The free list grows in blocks to amortize allocation.

func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		block := make([]event, eventBlock)
		for i := eventBlock - 1; i >= 1; i-- {
			block[i].next = e.free
			e.free = &block[i]
		}
		ev = &block[0]
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.slot = -1
	return ev
}

func (e *Engine) release(ev *event) {
	ev.stamp++
	ev.fn = nil
	ev.prev = nil
	ev.slot = -1
	ev.state = stFree
	ev.next = e.free
	e.free = ev
}

// Ticker repeatedly invokes a callback at a fixed virtual period until
// stopped. It is the building block for periodic policies that change state
// (TMO steps, DAMON sampling, semi-warm gradual offload); periodic work that
// only reads state uses a Sampler. The rearming closure is created once,
// so steady-state ticking allocates nothing.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      Func
	tick    Func
	ev      Handle
	stopped bool
}

// NewTicker schedules fn every period, first firing one period from now.
// period must be positive.
func NewTicker(e *Engine, period time.Duration, fn Func) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tick = func(e *Engine) {
		if t.stopped {
			return
		}
		t.fn(e)
		if !t.stopped {
			t.ev = e.After(t.period, t.tick)
		}
	}
	t.ev = e.After(t.period, t.tick)
	return t
}

// Reset rearms the ticker, stopped or not, to fire every period from now
// on, first one period from now, without allocating: a policy that starts
// and stops the same periodic work many times keeps one Ticker. period must
// be positive.
func (t *Ticker) Reset(period time.Duration) {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t.engine.Cancel(t.ev)
	t.period = period
	t.stopped = false
	t.ev = t.engine.After(period, t.tick)
}

// Stop cancels future firings. Idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.ev)
}

// Sampler calls a read-only callback at every multiple of a fixed virtual
// period after it is created, like a Ticker, but fires once per quiet span:
// a run of boundaries at which nothing else fires, so nothing the callback
// reads can change. Firing at boundary from, it extends to over every later
// boundary that is strictly before the earliest pending event and no later
// than the deadline of the RunUntil in progress, calls fn(from, to), and
// re-arms at to+period. Outside RunUntil (Step, Run) there is no deadline,
// so every span is one boundary.
//
// The spans are exact: fn sees, for every boundary in [from, to], the state
// a per-period Ticker would see there. A boundary that coincides with a
// pending event stays a span of its own and fires after that event, as the
// Ticker's would, and every other event keeps its relative firing order.
// fn must only read state: it must not schedule or cancel events, or change
// anything another event reads. A Sampler runs for the engine's lifetime.
type Sampler struct {
	period time.Duration
	fn     func(from, to Time)
	tick   Func
}

// NewSampler starts a Sampler whose first boundary is one period from now.
// period must be positive.
func NewSampler(e *Engine, period time.Duration, fn func(from, to Time)) *Sampler {
	if period <= 0 {
		panic("simtime: sampler period must be positive")
	}
	s := &Sampler{period: period, fn: fn}
	s.tick = func(e *Engine) {
		from := e.now
		lim := e.deadline
		if next, ok := e.peek(); ok && next-1 < lim {
			lim = next - 1
		}
		to := from
		if lim > from {
			to += (lim - from) / s.period * s.period
		}
		s.fn(from, to)
		e.At(to+s.period, s.tick)
	}
	e.After(period, s.tick)
	return s
}
