package metrics

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// naiveRecent is Recent's reference: it keeps every duration pushed and
// answers a query by sorting a copy of the last 512.
type naiveRecent struct{ all []time.Duration }

func (n *naiveRecent) last() []time.Duration {
	if over := len(n.all) - recentCap; over > 0 {
		return n.all[over:]
	}
	return n.all
}

func (n *naiveRecent) percentile(p float64) time.Duration {
	s := slices.Clone(n.last())
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return s[int(p/100*float64(len(s)-1))]
}

// arrivalOrder unrolls r's ring, oldest duration first.
func arrivalOrder(r *Recent) []time.Duration {
	return append(slices.Clone(r.ring[r.head:]), r.ring[:r.head]...)
}

// checkRecent fails unless r keeps exactly ref's last 512 durations in
// arrival order, with a mirror that is either unbuilt or their sorted copy.
func checkRecent(t *testing.T, r *Recent, ref *naiveRecent, where string) {
	t.Helper()
	if r.Len() != len(ref.last()) {
		t.Fatalf("%s: Len %d, want %d", where, r.Len(), len(ref.last()))
	}
	if i := firstDiff(arrivalOrder(r), ref.last()); i >= 0 {
		t.Fatalf("%s: ring differs from the last %d pushed at %d", where, len(ref.last()), i)
	}
	if r.sorted != nil {
		want := slices.Clone(ref.last())
		slices.Sort(want)
		if i := firstDiff(r.sorted, want); i >= 0 {
			t.Fatalf("%s: mirror differs from the sorted ring at %d", where, i)
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []time.Duration) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestRecentMatchesReference drives random push and query interleavings
// that wrap past 512 several times through Recent and the naive reference.
// Each sequence starts querying at a random step, so pushes land both
// before the first Percentile (ring only) and after it (mirror kept
// current), with the first query before or after the first wrap. Small
// value ranges make duplicates common.
func TestRecentMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Recent
		ref := &naiveRecent{}
		steps := 1200 + rng.Intn(600)
		firstQuery := rng.Intn(steps)
		span := 1 + rng.Intn(1000)
		for step := 0; step < steps; step++ {
			if step >= firstQuery && rng.Intn(6) == 0 {
				p := float64(rng.Intn(101))
				switch rng.Intn(4) {
				case 0:
					p = 99
				case 1:
					p = rng.Float64() * 100
				}
				if got, want := r.Percentile(p), ref.percentile(p); got != want {
					t.Fatalf("seed %d step %d: Percentile(%v) = %v, want %v", seed, step, p, got, want)
				}
			} else {
				d := time.Duration(rng.Intn(span)) * time.Millisecond
				r.Push(d)
				ref.all = append(ref.all, d)
			}
			// A wrong mirror stays wrong, so a full check every few steps
			// catches it.
			if step%8 == 0 {
				checkRecent(t, &r, ref, "after step")
			}
		}
		checkRecent(t, &r, ref, "at the end")
		if r.Len() != recentCap {
			t.Fatalf("seed %d: Len %d after %d steps, want %d", seed, r.Len(), steps, recentCap)
		}
	}
}

// TestRecentKeepsLast512: 600 pushes keep the last 512, oldest first.
func TestRecentKeepsLast512(t *testing.T) {
	var r Recent
	for i := 0; i < 600; i++ {
		r.Push(time.Duration(i) * time.Second)
	}
	got := arrivalOrder(&r)
	if len(got) != 512 || got[0] != 88*time.Second || got[511] != 599*time.Second {
		t.Fatalf("kept %d durations, %v..%v; want 512, 88s..599s", len(got), got[0], got[len(got)-1])
	}
	if r.Percentile(0) != 88*time.Second || r.Percentile(100) != 599*time.Second {
		t.Fatalf("P0/P100 = %v/%v, want 88s/599s", r.Percentile(0), r.Percentile(100))
	}
}

// TestRecentPercentileRank: Percentile reads rank ⌊p/100·(n−1)⌋ without
// interpolating, and an empty history answers 0 without building a mirror.
func TestRecentPercentileRank(t *testing.T) {
	var r Recent
	for _, p := range []float64{0, 50, 99, 100} {
		if got := r.Percentile(p); got != 0 {
			t.Errorf("empty P%v = %v, want 0", p, got)
		}
	}
	if r.Len() != 0 || r.sorted != nil {
		t.Fatalf("empty history: Len %d, mirror %v", r.Len(), r.sorted)
	}
	for _, i := range rand.New(rand.NewSource(5)).Perm(100) {
		r.Push(time.Duration(i+1) * time.Second)
	}
	cases := map[float64]time.Duration{0: time.Second, 50: 50 * time.Second, 99: 99 * time.Second, 100: 100 * time.Second}
	for p, want := range cases {
		if got := r.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	for _, p := range []float64{-1, 100.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			r.Percentile(p)
		}()
	}
}

// TestRecentCloneSharesNoStorage pushes into a clone and its source, before
// and after either has built its mirror, with both rings full so pushes
// overwrite in place: each must keep its own history.
func TestRecentCloneSharesNoStorage(t *testing.T) {
	for _, query := range []bool{false, true} {
		var src Recent
		srcRef := &naiveRecent{}
		for i := 0; i < 700; i++ {
			d := time.Duration(i%37) * time.Second
			src.Push(d)
			srcRef.all = append(srcRef.all, d)
		}
		if query {
			src.Percentile(50)
		}
		cl := src.Clone()
		clRef := &naiveRecent{all: slices.Clone(srcRef.all)}
		for i := 0; i < 300; i++ {
			cl.Push(time.Hour + time.Duration(i))
			clRef.all = append(clRef.all, time.Hour+time.Duration(i))
			src.Push(time.Duration(-i))
			srcRef.all = append(srcRef.all, time.Duration(-i))
			if i == 100 {
				cl.Percentile(99)
				src.Percentile(1)
			}
		}
		checkRecent(t, &cl, clRef, "clone")
		checkRecent(t, &src, srcRef, "source")
	}
	var empty Recent
	if cl := empty.Clone(); cl.Len() != 0 || cl.ring != nil || cl.sorted != nil {
		t.Fatalf("clone of an empty history = %+v", cl)
	}
}
