package ring

import (
	"fmt"
	"reflect"
	"testing"
)

// keepLast is the naive oracle: every pushed item in a slice, and the last
// capacity of them as the retained window.
type keepLast struct {
	capacity int
	all      []int
}

func (k *keepLast) push(v int) { k.all = append(k.all, v) }

func (k *keepLast) items() []int {
	return append([]int{}, k.all[max(len(k.all)-k.capacity, 0):]...)
}

func (k *keepLast) total() uint64   { return uint64(len(k.all)) }
func (k *keepLast) dropped() uint64 { return k.total() - uint64(len(k.items())) }

func check(t *testing.T, what string, r *Ring[int], want *keepLast) {
	t.Helper()
	items := want.items()
	if got := r.Items(); !reflect.DeepEqual(got, items) {
		t.Fatalf("%s: Items = %v, want %v", what, got, items)
	}
	each := []int{}
	r.Each(func(v int) { each = append(each, v) })
	if !reflect.DeepEqual(each, items) {
		t.Fatalf("%s: Each visits %v, want %v", what, each, items)
	}
	if r.Len() != len(items) || r.Total() != want.total() || r.Dropped() != want.dropped() {
		t.Fatalf("%s: Len/Total/Dropped = %d/%d/%d, want %d/%d/%d", what,
			r.Len(), r.Total(), r.Dropped(), len(items), want.total(), want.dropped())
	}
	if r.Cap() != want.capacity {
		t.Fatalf("%s: Cap = %d, want %d", what, r.Cap(), want.capacity)
	}
}

func TestRingMatchesKeepLast(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 5} {
			r := New[int](capacity)
			want := &keepLast{capacity: capacity}
			for i := 0; i < n; i++ {
				r.Push(i)
				want.push(i)
			}
			what := fmt.Sprintf("cap %d, %d pushes", capacity, n)
			check(t, what, &r, want)
		}
	}
}

// TestRingMergeFrom folds a source into a destination that already holds
// items and checks the result against one oracle fed both sequences: the
// retained window, the total and the dropped count all carry over.
func TestRingMergeFrom(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		for _, tc := range []struct {
			name   string
			dst, n int // pushes into the destination, then the source
		}{
			{"unwrapped source", capacity / 2, max(capacity-1, 0)},
			{"wrapped source", capacity / 2, 3*capacity + 5},
			{"wrapped both", 2*capacity + 1, capacity + 1},
			{"empty source", capacity + 1, 0},
		} {
			dst, src := New[int](capacity), New[int](capacity)
			want := &keepLast{capacity: capacity}
			for i := 0; i < tc.dst; i++ {
				dst.Push(i)
				want.push(i)
			}
			for i := 0; i < tc.n; i++ {
				src.Push(1000 + i)
				want.push(1000 + i)
			}
			srcBefore := src.Items()
			dst.MergeFrom(&src)
			check(t, fmt.Sprintf("cap %d, %s", capacity, tc.name), &dst, want)
			if got := src.Items(); !reflect.DeepEqual(got, srcBefore) {
				t.Fatalf("cap %d, %s: MergeFrom changed the source: %v, was %v", capacity, tc.name, got, srcBefore)
			}
		}
	}
}

func TestZeroRingDropsEverything(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	r.Push(2)
	check(t, "zero ring", &r, &keepLast{capacity: 0, all: []int{1, 2}})
}

func TestRingPushAllocFree(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Push(1) }); allocs != 0 {
		t.Fatalf("Push on a full ring allocates %v per op, want 0", allocs)
	}
}
