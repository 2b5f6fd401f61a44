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
	if cap(r.buf) != want.capacity {
		t.Fatalf("%s: capacity = %d, want %d", what, cap(r.buf), want.capacity)
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
