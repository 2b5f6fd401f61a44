package exemplar

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// inv builds a minimal span tree identifying one request.
func inv(container, function string, dur time.Duration) span.Invocation {
	return span.Invocation{
		Function:  function,
		Container: container,
		Root:      span.Span{Phase: span.PhaseRequest, Dur: dur},
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(0, "n0", "web", time.Second, inv("c", "web", time.Second))
	if r.Cells() != nil {
		t.Error("nil recorder retained state")
	}
	if r.Window() != DefaultWindow || r.K() != DefaultK {
		t.Error("nil recorder accessors differ from defaults")
	}
}

func TestDisabledExemplarsZeroAlloc(t *testing.T) {
	var r *Recorder
	tree := inv("c", "web", time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(0, "n0", "web", time.Second, tree)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTopKExact records latencies in scrambled order and checks the retained
// set is the exact worst-K under the total order, not an approximation.
func TestTopKExact(t *testing.T) {
	r := NewRecorder(Config{Window: 10 * time.Second, K: 3})
	lat := []int{7, 1, 9, 3, 9, 5, 2, 8} // two ties at 9
	for i, l := range lat {
		d := time.Duration(l) * time.Millisecond
		r.Record(simtime.Time(i)*simtime.Time(time.Millisecond), "n0", "web", d,
			inv("c", "web", d))
	}
	cells := r.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	c := cells[0]
	if c.Count != int64(len(lat)) {
		t.Errorf("count = %d, want %d", c.Count, len(lat))
	}
	if len(c.Top) != 3 {
		t.Fatalf("top = %d entries, want 3", len(c.Top))
	}
	want := []time.Duration{9 * time.Millisecond, 9 * time.Millisecond, 8 * time.Millisecond}
	for i, e := range c.Top {
		if e.Latency != want[i] {
			t.Errorf("top[%d] = %v, want %v", i, e.Latency, want[i])
		}
	}
	// The 9ms tie breaks by completion time: the earlier record first.
	if c.Top[0].At >= c.Top[1].At {
		t.Errorf("tie not broken by time: %v vs %v", c.Top[0].At, c.Top[1].At)
	}
	if c.Typical == nil {
		t.Fatal("no typical exemplar")
	}
}

// TestTypicalDeterministic re-records the same stream reversed; the
// hash-priority typical pick must not depend on arrival order.
func TestTypicalDeterministic(t *testing.T) {
	cfg := Config{Window: time.Minute, K: 1}
	build := func(reverse bool) *Cell {
		r := NewRecorder(cfg)
		n := 50
		for i := 0; i < n; i++ {
			j := i
			if reverse {
				j = n - 1 - i
			}
			d := time.Duration(j+1) * time.Millisecond
			r.Record(simtime.Time(j)*simtime.Time(time.Millisecond), "n0", "web", d,
				inv("c", "web", d))
		}
		cells := r.Cells()
		if len(cells) != 1 {
			t.Fatalf("cells = %d, want 1", len(cells))
		}
		return &cells[0]
	}
	fwd, rev := build(false), build(true)
	if !reflect.DeepEqual(fwd.Typical, rev.Typical) {
		t.Errorf("typical differs by arrival order: %+v vs %+v", fwd.Typical, rev.Typical)
	}
}
