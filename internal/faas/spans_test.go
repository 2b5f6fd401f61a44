package faas

import (
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

// TestSpanTreesReconcileWithRequestLog drives a platform through cold and
// warm starts and checks every recorded span tree against the request log:
// same count, same end-to-end latency, phases summing exactly.
func TestSpanTreesReconcileWithRequestLog(t *testing.T) {
	e := simtime.NewEngine()
	rec := span.NewRecorder(128)
	p := New(e, Config{
		KeepAliveTimeout: 10 * time.Second,
		RequestLogSize:   128,
		Telemetry:        telemetry.Hub{Spans: rec},
		Seed:             1,
	}, policy.NoOffload{})
	p.Register("f", tinyProfile())
	// 0: cold start. 50ms: a second cold start beside the busy first
	// container. 2s: warm reuse.
	p.ScheduleInvocations("f", []simtime.Time{0, 50 * time.Millisecond, 2 * time.Second})
	e.Run()

	invs := rec.Invocations()
	recs := p.RequestLog().Items()
	if len(invs) != 3 || len(recs) != 3 {
		t.Fatalf("got %d spans / %d log records, want 3/3", len(invs), len(recs))
	}
	wantKinds := []span.StartKind{span.Cold, span.Cold, span.Warm}
	for i, inv := range invs {
		reconcileSpan(t, inv)
		if inv.Kind != wantKinds[i] {
			t.Fatalf("inv %d kind = %v, want %v", i, inv.Kind, wantKinds[i])
		}
		if inv.Root.Start != recs[i].Arrival || inv.Total() != recs[i].Latency {
			t.Fatalf("inv %d [%v, %v] disagrees with log record [%v, %v]",
				i, inv.Root.Start, inv.Total(), recs[i].Arrival, recs[i].Latency)
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
// recording spans must not change simulation outcomes.
func TestSpansDisabledMatchesEnabledLatency(t *testing.T) {
	run := func(rec *span.Recorder) []RequestRecord {
		e := simtime.NewEngine()
		p := New(e, Config{
			KeepAliveTimeout: 10 * time.Second,
			RequestLogSize:   64,
			Telemetry:        telemetry.Hub{Spans: rec},
			Seed:             7,
		}, policy.NoOffload{})
		p.Register("f", tinyProfile())
		p.ScheduleInvocations("f", []simtime.Time{0, time.Second, 2 * time.Second})
		e.Run()
		return p.RequestLog().Items()
	}
	off := run(nil)
	on := run(span.NewRecorder(64))
	if len(off) != len(on) {
		t.Fatalf("record counts differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("record %d differs with spans on: %+v vs %+v", i, off[i], on[i])
		}
	}
}
