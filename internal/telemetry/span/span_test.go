package span

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// coldInv builds a representative cold-start tree: request → launch, init,
// exec(→ fault-stall(→ backlog)).
func coldInv(fn, ctr string, base simtime.Time) Invocation {
	launch := Span{Phase: PhaseLaunch, Start: base, Dur: sec(1.2)}
	init := Span{Phase: PhaseInit, Start: launch.End(), Dur: sec(0.4)}
	backlog := Span{Phase: PhaseBacklog, Start: init.End() + simtime.Time(sec(0.1)), Dur: sec(0.02), Pages: 1 << 20}
	stall := Span{
		Phase: PhaseFaultStall, Start: init.End() + simtime.Time(sec(0.05)),
		Dur: sec(0.09), Pages: 12, Children: []Span{backlog},
	}
	exec := Span{Phase: PhaseExec, Start: init.End(), Dur: sec(0.34), Children: []Span{stall}}
	return Invocation{
		Function: fn, Container: ctr, Kind: Cold,
		Root: Span{
			Phase: PhaseRequest, Start: base, Dur: sec(1.94),
			Children: []Span{launch, init, exec},
		},
	}
}

func warmInv(fn, ctr string, base simtime.Time, total, stall float64) Invocation {
	exec := Span{Phase: PhaseExec, Start: base, Dur: sec(total)}
	if stall > 0 {
		exec.Children = []Span{{
			Phase: PhaseFaultStall, Start: base + simtime.Time(sec(0.01)),
			Dur: sec(stall), Pages: 4,
		}}
	}
	return Invocation{
		Function: fn, Container: ctr, Kind: Warm,
		Root: Span{Phase: PhaseRequest, Start: base, Dur: sec(total), Children: []Span{exec}},
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(coldInv("web", "web#1", 0))
	r.RecordBackground(Background{Kind: BGOffload})
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder must count nothing")
	}
	if r.Invocations() != nil || r.Backgrounds() != nil {
		t.Fatal("nil recorder must return nil slices")
	}
}

func TestDisabledSpansZeroAlloc(t *testing.T) {
	var r *Recorder
	inv := coldInv("web", "web#1", 0)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(inv)
		r.RecordBackground(Background{})
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v times per op, want 0", allocs)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(warmInv("f", "f#1", simtime.Time(sec(float64(i))), 0.1, 0))
	}
	if r.Len() != 3 || r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("len/total/dropped = %d/%d/%d, want 3/5/2", r.Len(), r.Total(), r.Dropped())
	}
	invs := r.Invocations()
	for i, inv := range invs {
		want := simtime.Time(sec(float64(i + 2)))
		if inv.Root.Start != want {
			t.Fatalf("inv %d start = %v, want %v (oldest-first after wrap)", i, inv.Root.Start, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("reset must clear everything")
	}
}

// TestCriticalPathTelescopes pins the reconciliation invariant the
// attribution tables rely on: per-phase critical-path times sum to the
// end-to-end latency exactly, in integer nanoseconds.
func TestCriticalPathTelescopes(t *testing.T) {
	inv := coldInv("web", "web#1", 0)
	cp := CriticalPath(inv)
	var sum time.Duration
	for _, d := range cp {
		sum += d
	}
	if sum != inv.Total() {
		t.Fatalf("phase sum %v != total %v", sum, inv.Total())
	}
	if cp[PhaseRequest] != 0 {
		t.Fatalf("request phase must never hold self time, got %v", cp[PhaseRequest])
	}
	if cp[PhaseLaunch] != sec(1.2) || cp[PhaseInit] != sec(0.4) {
		t.Fatalf("launch/init = %v/%v", cp[PhaseLaunch], cp[PhaseInit])
	}
	if cp[PhaseExec] != sec(0.34)-sec(0.09) {
		t.Fatalf("exec self time = %v, want %v", cp[PhaseExec], sec(0.34)-sec(0.09))
	}
	if cp[PhaseFaultStall] != sec(0.09)-sec(0.02) {
		t.Fatalf("stall self time = %v", cp[PhaseFaultStall])
	}
	if cp[PhaseBacklog] != sec(0.02) {
		t.Fatalf("backlog = %v", cp[PhaseBacklog])
	}
}

// TestAnalyzeReconciles asserts the acceptance criterion at the engine
// level: every order-statistic breakdown's phase columns sum to its Total.
func TestAnalyzeReconciles(t *testing.T) {
	var invs []Invocation
	invs = append(invs, coldInv("web", "web#1", 0))
	for i := 0; i < 40; i++ {
		stall := 0.0
		if i%4 == 0 {
			stall = 0.03 * float64(i%8+1)
		}
		invs = append(invs, warmInv("web", "web#1",
			simtime.Time(sec(float64(10+i))), 0.2+0.001*float64(i), stall))
	}
	for i := 0; i < 10; i++ {
		invs = append(invs, warmInv("ml", "ml#1",
			simtime.Time(sec(float64(100+i))), 1.5, 0.2))
	}
	an := Analyze(invs)
	if an.Overall.N != len(invs) {
		t.Fatalf("overall N = %d, want %d", an.Overall.N, len(invs))
	}
	if len(an.PerFunction) != 2 ||
		an.PerFunction[0].Function != "ml" || an.PerFunction[1].Function != "web" {
		t.Fatalf("per-function must be sorted by ID, got %+v", an.PerFunction)
	}
	check := func(at Attribution) {
		t.Helper()
		if len(at.Breakdowns) != len(Quantiles) {
			t.Fatalf("%q: %d breakdowns, want %d", at.Function, len(at.Breakdowns), len(Quantiles))
		}
		for _, bd := range at.Breakdowns {
			var sum time.Duration
			for _, d := range bd.Phase {
				sum += d
			}
			if sum != bd.Total {
				t.Fatalf("%q q=%v: phase sum %v != total %v", at.Function, bd.Q, sum, bd.Total)
			}
		}
		var meanSum float64
		for _, m := range at.MeanPhase {
			meanSum += m
		}
		if diff := meanSum - at.MeanTotal; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%q: mean phase sum %v != mean total %v", at.Function, meanSum, at.MeanTotal)
		}
	}
	check(an.Overall)
	for _, at := range an.PerFunction {
		check(at)
	}
	// The ml function stalls 0.2 s of 1.5 s on every request; its dominant
	// non-exec share must be the fault stall at every percentile.
	ml := an.PerFunction[0]
	for _, bd := range ml.Breakdowns {
		if bd.Total != sec(1.5) || bd.Phase[PhaseFaultStall] != sec(0.2) {
			t.Fatalf("ml q=%v: total %v stall %v", bd.Q, bd.Total, bd.Phase[PhaseFaultStall])
		}
		if bd.Dominant != PhaseExec {
			t.Fatalf("ml q=%v dominant = %v, want exec", bd.Q, bd.Dominant)
		}
	}
	// Starts tally: 1 cold + 50 warm overall.
	if an.Overall.Starts[Cold] != 1 || an.Overall.Starts[Warm] != 50 {
		t.Fatalf("starts = %v", an.Overall.Starts)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	an := Analyze(nil)
	if an.Overall.N != 0 || len(an.Overall.Breakdowns) != 0 || len(an.PerFunction) != 0 {
		t.Fatalf("empty analysis must be empty, got %+v", an)
	}
}

func TestQuantileIndex(t *testing.T) {
	cases := []struct {
		q    float64
		n    int
		want int
	}{
		{0.5, 1, 0}, {0.99, 1, 0},
		{0.5, 2, 0}, {0.95, 2, 1},
		{0.5, 100, 49}, {0.95, 100, 94}, {0.99, 100, 98},
		{0.0, 10, 0}, {1.0, 10, 9},
	}
	for _, c := range cases {
		if got := quantileIndex(c.q, c.n); got != c.want {
			t.Fatalf("quantileIndex(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestPhaseNames(t *testing.T) {
	for p := PhaseOther; p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		back, ok := PhaseByName(name)
		if !ok || back != p {
			t.Fatalf("PhaseByName(%q) = %v, %v", name, back, ok)
		}
	}
	if Phase(200).String() != "unknown" {
		t.Fatal("out-of-range phase must print unknown")
	}
	for k := Cold; k < numStartKinds; k++ {
		back, ok := startKindByName(k.String())
		if !ok || back != k {
			t.Fatalf("startKindByName(%q) failed", k.String())
		}
	}
}
