package faas

import (
	"reflect"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// reconcile asserts the invariant the attribution tables rest on: an
// invocation's per-phase critical-path times sum to its end-to-end latency
// exactly.
func reconcileSpan(t *testing.T, inv span.Invocation) {
	t.Helper()
	cp := span.CriticalPath(inv)
	var sum time.Duration
	for _, d := range cp {
		sum += d
	}
	if sum != inv.Total() {
		t.Fatalf("%s on %s (%v): phase sum %v != total %v",
			inv.Function, inv.Container, inv.Kind, sum, inv.Total())
	}
}

// requestEvents filters traced events to the request events, one per
// completed request in completion order.
func requestEvents(evs []telemetry.Event) []telemetry.Event {
	var reqs []telemetry.Event
	for _, ev := range evs {
		if ev.Kind == telemetry.KindRequest {
			reqs = append(reqs, ev)
		}
	}
	return reqs
}

// TestSpanTreesReconcileWithRequestLog drives a platform through cold and
// warm starts and checks every recorded span tree against the requests:
// each root starts at its scheduled arrival, its exec child is the tracer's
// request event (same container, function, kind, start and end), and its
// phases sum exactly to its end-to-end latency.
func TestSpanTreesReconcileWithRequestLog(t *testing.T) {
	e := simtime.NewEngine()
	rec := span.NewRecorder(128)
	tr := telemetry.NewTracer(0)
	p := New(e, Config{
		KeepAliveTimeout: 10 * time.Second,
		Telemetry:        telemetry.Hub{Tracer: tr, Spans: rec},
		Seed:             1,
	}, policy.NoOffload{})
	p.Register("f", tinyProfile())
	// 0: cold start. 50ms: a second cold start beside the busy first
	// container. 2s: warm reuse. They complete in arrival order.
	arrivals := []simtime.Time{0, 50 * time.Millisecond, 2 * time.Second}
	p.ScheduleInvocations("f", arrivals)
	e.Run()

	invs := rec.Invocations()
	reqs := requestEvents(tr.Events())
	if len(invs) != 3 || len(reqs) != 3 {
		t.Fatalf("got %d spans / %d request events, want 3/3", len(invs), len(reqs))
	}
	wantKinds := []span.StartKind{span.Cold, span.Cold, span.Warm}
	for i, inv := range invs {
		reconcileSpan(t, inv)
		if inv.Kind != wantKinds[i] {
			t.Fatalf("inv %d kind = %v, want %v", i, inv.Kind, wantKinds[i])
		}
		if inv.Root.Start != arrivals[i] {
			t.Fatalf("inv %d root starts at %v, want its arrival %v", i, inv.Root.Start, arrivals[i])
		}
		ev := reqs[i]
		if ev.Actor != inv.Container || ev.Fn != inv.Function || ev.Aux != int64(inv.Kind) {
			t.Fatalf("inv %d (%s, %s, %v) disagrees with request event (%s, %s, %d)",
				i, inv.Container, inv.Function, inv.Kind, ev.Actor, ev.Fn, ev.Aux)
		}
		exec := inv.Root.Children[len(inv.Root.Children)-1]
		if exec.Phase != span.PhaseExec || exec.Start != ev.At || exec.Dur != ev.Dur ||
			inv.Root.Start+inv.Total() != ev.At+ev.Dur {
			t.Fatalf("inv %d root [%v, +%v] exec %v [%v, +%v] disagrees with request event [%v, +%v]",
				i, inv.Root.Start, inv.Total(), exec.Phase, exec.Start, exec.Dur, ev.At, ev.Dur)
		}
	}
	// Cold tree: launch + init + exec children covering the root end to end.
	cold := invs[0]
	if len(cold.Root.Children) != 3 ||
		cold.Root.Children[0].Phase != span.PhaseLaunch ||
		cold.Root.Children[1].Phase != span.PhaseInit ||
		cold.Root.Children[2].Phase != span.PhaseExec {
		t.Fatalf("cold tree children = %+v", cold.Root.Children)
	}
	cp := span.CriticalPath(cold)
	if cp[span.PhaseLaunch] != 300*time.Millisecond ||
		cp[span.PhaseInit] != 200*time.Millisecond ||
		cp[span.PhaseExec] != 100*time.Millisecond {
		t.Fatalf("cold breakdown = %v", cp)
	}
}

// TestSpanStallChildren runs FaaSMem with an aggressive semi-warm so reuse
// faults remote pages, and checks the stall appears as a restore child with
// pages attached.
func TestSpanStallChildren(t *testing.T) {
	e := simtime.NewEngine()
	rec := span.NewRecorder(128)
	pol := core.New(core.Config{
		FallbackSemiWarmDelay: 500 * time.Millisecond,
	})
	p := New(e, Config{
		KeepAliveTimeout: time.Minute,
		Telemetry:        telemetry.Hub{Spans: rec},
		Seed:             1,
	}, pol)
	p.Register("f", tinyProfile())
	// Cold at 0, then reuse long after the semi-warm drain started.
	p.ScheduleInvocations("f", []simtime.Time{0, 30 * time.Second})
	e.Run()

	invs := rec.Invocations()
	if len(invs) != 2 {
		t.Fatalf("got %d invocations, want 2", len(invs))
	}
	reuse := invs[1]
	reconcileSpan(t, reuse)
	if reuse.Kind != span.SemiWarm {
		t.Fatalf("reuse kind = %v, want semi-warm", reuse.Kind)
	}
	cp := span.CriticalPath(reuse)
	if cp[span.PhaseRestore] <= 0 {
		t.Fatalf("semi-warm reuse must carry a restore stall, breakdown = %v", cp)
	}
	var stallPages int64
	var findStall func(s span.Span)
	findStall = func(s span.Span) {
		if s.Phase == span.PhaseRestore {
			stallPages = s.Pages
		}
		for _, c := range s.Children {
			findStall(c)
		}
	}
	findStall(reuse.Root)
	if stallPages <= 0 {
		t.Fatalf("restore span must carry faulted pages, tree = %+v", reuse.Root)
	}
	// The drain itself must have produced offload background spans, and the
	// reuse a completed semi-warm background span.
	var offloads, semis int
	for _, bg := range rec.Backgrounds() {
		switch bg.Kind {
		case span.BGOffload:
			offloads++
		case span.BGSemiWarm:
			semis++
		}
	}
	if offloads == 0 || semis == 0 {
		t.Fatalf("backgrounds: offloads=%d semis=%d, want both > 0", offloads, semis)
	}
}

// TestSpansDisabledMatchesEnabledLatency pins the observer-effect contract:
// recording spans must not change simulation outcomes. With the tracer on
// in both runs, every traced event and the function's statistics (latency
// samples included) must be identical with spans off and on.
func TestSpansDisabledMatchesEnabledLatency(t *testing.T) {
	type result struct {
		events []telemetry.Event
		stats  FunctionStats
	}
	run := func(rec *span.Recorder) result {
		e := simtime.NewEngine()
		tr := telemetry.NewTracer(0)
		p := New(e, Config{
			KeepAliveTimeout: 10 * time.Second,
			Telemetry:        telemetry.Hub{Tracer: tr, Spans: rec},
			Seed:             7,
		}, policy.NoOffload{})
		f := p.Register("f", tinyProfile())
		p.ScheduleInvocations("f", []simtime.Time{0, time.Second, 2 * time.Second})
		e.Run()
		return result{tr.Events(), *f.Stats()}
	}
	off := run(nil)
	on := run(span.NewRecorder(64))
	if n := len(requestEvents(off.events)); n != 3 {
		t.Fatalf("spans-off run traced %d requests, want 3", n)
	}
	if len(off.events) != len(on.events) {
		t.Fatalf("event counts differ: %d vs %d", len(off.events), len(on.events))
	}
	for i := range off.events {
		if off.events[i] != on.events[i] {
			t.Fatalf("event %d differs with spans on: %+v vs %+v", i, off.events[i], on.events[i])
		}
	}
	if !reflect.DeepEqual(off.stats, on.stats) {
		t.Fatalf("function stats differ with spans on:\n  off: %+v\n  on:  %+v", off.stats, on.stats)
	}
}
