package faas

import (
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/span"
	"github.com/faasmem/faasmem/internal/workload"
)

// newWorkflowRig builds a platform + shared-region manager + workflow
// engine for one built-in workflow.
func newWorkflowRig(t *testing.T, wfName string, statePassing bool, plan *faultinject.Plan) (*simtime.Engine, *Platform, *sharedmem.Manager, *WorkflowEngine) {
	t.Helper()
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout: 30 * time.Second,
		Seed:             1,
		Pool:             rmem.Config{Node: &memnode.Config{}, Faults: plan},
	}, policy.NoOffload{})
	m := sharedmem.New(sharedmem.Config{Pool: p.Pool()})
	wf, err := workload.WorkflowByName(wfName)
	if err != nil {
		t.Fatal(err)
	}
	we, err := NewWorkflowEngine(WorkflowConfig{
		Engine:       e,
		Shared:       m,
		Register:     func(id string, prof *workload.Profile) { p.Register(id, prof) },
		Invoke:       func(id string, h *StageHooks) { p.Invoke(id, h, false) },
		StatePassing: statePassing,
	}, wf)
	if err != nil {
		t.Fatal(err)
	}
	return e, p, m, we
}

func runWorkflowOnce(t *testing.T, e *simtime.Engine, we *WorkflowEngine) time.Duration {
	t.Helper()
	var lat time.Duration
	ran := false
	we.Run(func(start, end simtime.Time) {
		lat = time.Duration(end - start)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("workflow run never completed")
	}
	return lat
}

func TestWorkflowPipelineCompletes(t *testing.T) {
	e, p, m, we := newWorkflowRig(t, "pipeline", true, nil)
	lat := runWorkflowOnce(t, e, we)
	st := we.Stats()
	if st.Completed != 1 || st.Runs != 1 {
		t.Fatalf("completed=%d runs=%d, want 1/1", st.Completed, st.Runs)
	}
	if st.Invocations != StageRequests(we.wf) {
		t.Fatalf("invocations=%d, want %d", st.Invocations, StageRequests(we.wf))
	}
	if st.Replays != 0 || st.Reinits != 0 {
		t.Fatalf("replays=%d reinits=%d on a healthy pool", st.Replays, st.Reinits)
	}
	if st.StateInTime <= 0 || st.StateOutTime <= 0 {
		t.Fatalf("state time not accounted: in=%v out=%v", st.StateInTime, st.StateOutTime)
	}
	if lat <= 0 {
		t.Fatalf("run latency %v", lat)
	}
	// Every region drained; the pool holds only what live containers
	// offloaded (none, under NoOffload).
	if !m.Drained() {
		t.Fatal("regions not drained at run end")
	}
	if used := p.Pool().Used(); used != 0 {
		t.Fatalf("pool used %d after drain", used)
	}
	if err := p.Pool().Node().CheckInvariants(); err != nil {
		t.Fatalf("memnode invariants: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("manager invariants: %v", err)
	}
	// Every stage completed exactly one request (pipeline has no replicas).
	for _, f := range p.Functions() {
		if f.Stats().Requests != 1 {
			t.Fatalf("%s completed %d requests, want 1", f.id, f.Stats().Requests)
		}
	}
}

func TestWorkflowPoolBeatsReinit(t *testing.T) {
	// Intermediate state through the pool's 56 Gbps link vs re-derivation
	// at the 1 GB/s storage path: pool-backed passing must win on the
	// chained shapes.
	for _, wfName := range []string{"pipeline", "fanout"} {
		e1, _, _, we1 := newWorkflowRig(t, wfName, true, nil)
		poolLat := runWorkflowOnce(t, e1, we1)
		e2, _, _, we2 := newWorkflowRig(t, wfName, false, nil)
		reinitLat := runWorkflowOnce(t, e2, we2)
		if poolLat >= reinitLat {
			t.Fatalf("%s: pool %v >= reinit %v", wfName, poolLat, reinitLat)
		}
		if we2.Stats().Reinits == 0 {
			t.Fatalf("%s: baseline did not count reinits", wfName)
		}
	}
}

func TestWorkflowFanoutSharesOneCopy(t *testing.T) {
	e, _, m, we := newWorkflowRig(t, "fanout", true, nil)
	runWorkflowOnce(t, e, we)
	st := m.Stats()
	// 4 fan replicas map the source region, the join maps the fan region:
	// 5 mappings over 2 created regions, no private copies.
	if st.Created != 2 || st.Maps != 5 || st.Unmaps != 5 {
		t.Fatalf("manager stats = %+v", st)
	}
	if st.CowBreaks != 0 {
		t.Fatalf("unexpected CoW breaks: %+v", st)
	}
	if !m.Drained() {
		t.Fatal("regions not drained")
	}
}

func TestWorkflowWebsessionCowBreaks(t *testing.T) {
	e, p, m, we := newWorkflowRig(t, "websession", true, nil)
	runWorkflowOnce(t, e, we)
	st := we.Stats()
	if st.CowBreaks != 4 {
		t.Fatalf("cow breaks = %d, want 4 (one per handler replica)", st.CowBreaks)
	}
	ms := m.Stats()
	if ms.CowBreaks != 4 || ms.CowPages == 0 {
		t.Fatalf("manager cow stats = %+v", ms)
	}
	if !m.Drained() {
		t.Fatal("regions (and CoW clones) not drained")
	}
	if used := p.Pool().Used(); used != 0 {
		t.Fatalf("pool used %d after drain", used)
	}
}

func TestWorkflowFaultReplay(t *testing.T) {
	// Pool crashed for the whole run: regions cannot be produced, every
	// consumer replays its inputs locally, and the run still completes
	// with nothing leaked.
	plan := faultinject.FromWindows([]faultinject.Window{
		{Kind: faultinject.PoolCrash, Start: 0, End: simtime.Time(time.Hour)},
	})
	e, p, m, we := newWorkflowRig(t, "pipeline", true, plan)
	runWorkflowOnce(t, e, we)
	st := we.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed=%d under pool crash", st.Completed)
	}
	if st.Replays == 0 {
		t.Fatal("no replays counted with the pool down")
	}
	if !m.Drained() {
		t.Fatal("regions leaked under fault plan")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("manager invariants: %v", err)
	}
	if err := p.Pool().Node().CheckInvariants(); err != nil {
		t.Fatalf("memnode invariants: %v", err)
	}
}

func TestWorkflowStateSpansReconcile(t *testing.T) {
	rec := span.NewRecorder(64)
	e := simtime.NewEngine()
	p := New(e, Config{
		KeepAliveTimeout: 30 * time.Second,
		Seed:             1,
		Pool:             rmem.Config{Node: &memnode.Config{}},
		Telemetry:        telemetry.Hub{Spans: rec},
	}, policy.NoOffload{})
	m := sharedmem.New(sharedmem.Config{Pool: p.Pool()})
	wf, err := workload.WorkflowByName("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	we, err := NewWorkflowEngine(WorkflowConfig{
		Engine:   e,
		Shared:   m,
		Register: func(id string, prof *workload.Profile) { p.Register(id, prof) },
		Invoke:   func(id string, h *StageHooks) { p.Invoke(id, h, false) }, StatePassing: true,
	}, wf)
	if err != nil {
		t.Fatal(err)
	}
	runWorkflowOnce(t, e, we)
	invs := rec.Invocations()
	if len(invs) != 4 {
		t.Fatalf("recorded %d invocations, want 4", len(invs))
	}
	var ins, outs int
	for _, inv := range invs {
		reconcileSpan(t, inv)
		var walk func(s span.Span)
		walk = func(s span.Span) {
			switch s.Phase {
			case span.PhaseStateIn:
				ins++
				if s.Pages <= 0 {
					t.Fatalf("state-in span without bytes: %+v", s)
				}
			case span.PhaseStateOut:
				outs++
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(inv.Root)
	}
	// Three stages consume state, three produce it (serve is a sink with no
	// output region).
	if ins != 3 || outs != 3 {
		t.Fatalf("state spans: in=%d out=%d, want 3/3", ins, outs)
	}
}
