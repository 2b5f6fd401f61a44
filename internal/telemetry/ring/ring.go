// Package ring is the bounded "keep the last N" buffer under every sink that
// retains individual records: the event tracer, the span recorder's
// invocation and background rings, and the timeline's flight recorder. Once
// full, each push overwrites the oldest item and counts it as dropped, so
// recording a multi-hour simulation cannot exhaust the host.
//
// A Ring does no locking; the sink that owns it guards it with the lock it
// already holds.
package ring

// Ring keeps the last capacity pushed items. The zero Ring has capacity 0 and
// drops everything; construct with New.
type Ring[T any] struct {
	buf   []T
	next  int    // oldest item's slot once the ring is full
	total uint64 // items ever pushed
}

// New returns an empty ring holding at most capacity items; capacity must
// be 0 or more.
func New[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Push stores v, overwriting the oldest item once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.total++
	switch {
	case len(r.buf) < cap(r.buf):
		r.buf = append(r.buf, v)
	case len(r.buf) > 0:
		r.buf[r.next] = v
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
	}
}

// Each calls f on every held item, oldest first, without copying.
func (r *Ring[T]) Each(f func(T)) {
	for _, v := range r.buf[r.next:] {
		f(v)
	}
	for _, v := range r.buf[:r.next] {
		f(v)
	}
}

// Items returns a copy of the held items, oldest first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of items held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns how many items were ever pushed.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many pushed items have been overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }
