package exemplar

import (
	"math/rand"
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
	if err := r.MergeFrom(NewRecorder(Config{})); err != nil {
		t.Fatal(err)
	}
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

// TestMergeOrderInvariant shards one recording stream into every grouping of
// 1, 2, and 4 shards, merges each back in different orders, and requires
// bit-identical cells — the property the parallel scenario harness relies on.
func TestMergeOrderInvariant(t *testing.T) {
	cfg := Config{Window: 5 * time.Second, K: 2}
	type rec struct {
		at      simtime.Time
		node    string
		tenant  string
		latency time.Duration
	}
	rng := rand.New(rand.NewSource(7))
	var stream []rec
	for i := 0; i < 200; i++ {
		stream = append(stream, rec{
			at:      simtime.Time(rng.Int63n(int64(60 * time.Second))),
			node:    []string{"n0", "n1"}[rng.Intn(2)],
			tenant:  []string{"web", "bert", "json"}[rng.Intn(3)],
			latency: time.Duration(rng.Int63n(int64(2 * time.Second))),
		})
	}
	record := func(r *Recorder, x rec, i int) {
		r.Record(x.at, x.node, x.tenant, x.latency,
			inv("c", x.tenant, x.latency))
		_ = i
	}

	serial := NewRecorder(cfg)
	for i, x := range stream {
		record(serial, x, i)
	}
	want := serial.Cells()

	for _, shards := range []int{1, 2, 4} {
		sh := make([]*Recorder, shards)
		for i := range sh {
			sh[i] = NewRecorder(cfg)
		}
		for i, x := range stream {
			record(sh[i%shards], x, i)
		}
		sink := NewRecorder(cfg)
		// Merge in reverse order to stress order-independence.
		for i := len(sh) - 1; i >= 0; i-- {
			if err := sink.MergeFrom(sh[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := sink.Cells(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: merged cells differ from serial recording", shards)
		}
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

// TestMergeEdgeCases tables the defined-error paths: self-merge and
// mismatched configurations must error without mutating state; nil merges
// are no-ops.
func TestMergeEdgeCases(t *testing.T) {
	base := Config{Window: 10 * time.Second, K: 3}
	for _, tc := range []struct {
		name    string
		src     func(r *Recorder) *Recorder
		wantErr bool
	}{
		{"self", func(r *Recorder) *Recorder { return r }, true},
		{"window mismatch", func(*Recorder) *Recorder {
			return NewRecorder(Config{Window: 20 * time.Second, K: 3})
		}, true},
		{"k mismatch", func(*Recorder) *Recorder {
			return NewRecorder(Config{Window: 10 * time.Second, K: 5})
		}, true},
		{"nil src", func(*Recorder) *Recorder { return nil }, false},
		{"same config", func(*Recorder) *Recorder { return NewRecorder(base) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(base)
			r.Record(0, "n0", "web", time.Second, inv("c", "web", time.Second))
			before := r.Cells()
			err := r.MergeFrom(tc.src(r))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if tc.wantErr && !reflect.DeepEqual(r.Cells(), before) {
				t.Error("failed merge mutated the destination")
			}
		})
	}
}

// TestMergePreservesCounts checks counts survive a merge beyond what top-K
// retention kept.
func TestMergePreservesCounts(t *testing.T) {
	cfg := Config{Window: time.Minute, K: 1}
	a, b := NewRecorder(cfg), NewRecorder(cfg)
	for i := 0; i < 10; i++ {
		d := time.Duration(i+1) * time.Millisecond
		b.Record(simtime.Time(i), "n0", "web", d, inv("c", "web", d))
	}
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	cells := a.Cells()
	if len(cells) != 1 || cells[0].Count != 10 {
		t.Fatalf("merged count = %+v, want 10 in one cell", cells)
	}
	if len(cells[0].Top) != 1 || cells[0].Top[0].Latency != 10*time.Millisecond {
		t.Errorf("merged top = %+v, want the single 10ms worst", cells[0].Top)
	}
}
