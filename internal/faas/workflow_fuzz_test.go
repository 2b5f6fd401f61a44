package faas_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// decodeWorkflowFuzz turns fuzz bytes into an arbitrary stage graph (edges in
// any direction, so cycles are reachable) plus a fault-plan selector.
func decodeWorkflowFuzz(data []byte) (*workload.Workflow, byte) {
	if len(data) < 2 {
		return nil, 0
	}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := int(next())%6 + 2
	faultMode := next() % 4
	profs := workload.Profiles()
	wf := &workload.Workflow{Name: "fuzz"}
	for i := 0; i < n; i++ {
		st := workload.Stage{
			Name:       fmt.Sprintf("s%d", i),
			Profile:    profs[int(next())%len(profs)].Name,
			OutBytes:   int64(next()%33) << 20,
			DirtyBytes: int64(next()%4) << 20,
			Replicas:   int(next() % 3),
		}
		seen := map[int]bool{}
		for d := int(next()) % 3; d > 0; d-- {
			j := int(next()) % n
			if j == i || seen[j] {
				continue
			}
			seen[j] = true
			st.Deps = append(st.Deps, fmt.Sprintf("s%d", j))
		}
		wf.Stages = append(wf.Stages, st)
	}
	return wf, faultMode
}

// hasCycleDFS is an independent (colored-DFS) cycle oracle over the decoded
// dependency edges, differentially checking Workflow.Validate's Kahn pass.
func hasCycleDFS(wf *workload.Workflow) bool {
	idx := map[string]int{}
	for i := range wf.Stages {
		idx[wf.Stages[i].Name] = i
	}
	color := make([]int, len(wf.Stages)) // 0 white, 1 gray, 2 black
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = 1
		for _, d := range wf.Stages[i].Deps {
			switch color[idx[d]] {
			case 1:
				return true
			case 0:
				if visit(idx[d]) {
					return true
				}
			}
		}
		color[i] = 2
		return false
	}
	for i := range wf.Stages {
		if color[i] == 0 && visit(i) {
			return true
		}
	}
	return false
}

// fuzzFaultPlan maps the selector byte onto a deterministic fault plan.
func fuzzFaultPlan(mode byte) *faultinject.Plan {
	switch mode % 4 {
	case 1:
		return faultinject.FromWindows([]faultinject.Window{
			{Kind: faultinject.PoolCrash, Start: 0, End: simtime.Time(time.Hour)},
		})
	case 2:
		return faultinject.FromWindows([]faultinject.Window{
			{Kind: faultinject.LinkFlap, Start: 0, End: simtime.Time(20 * time.Second)},
		})
	case 3:
		return faultinject.FromWindows([]faultinject.Window{
			{Kind: faultinject.LatencySpike, Start: 0, End: simtime.Time(time.Hour), Factor: 4},
		})
	default:
		return nil
	}
}

// FuzzWorkflowDAG decodes arbitrary stage graphs and checks three contracts:
// cyclic graphs are rejected by Validate (differentially against a DFS
// oracle); acyclic graphs run to completion on a fault-injected rack with
// every stage request conserved (completed exactly StageRequests times across
// the normal/rescheduled/re-init classes); and the shared-region manager
// drains — refcounts hit zero, nothing leaks — under every fault plan.
func FuzzWorkflowDAG(f *testing.F) {
	// Linear chain, fault-free.
	f.Add([]byte{1, 0, 0, 8, 0, 1, 0, 1, 4, 1, 1, 1, 0})
	// Diamond with replicas under a pool crash.
	f.Add([]byte{2, 1, 3, 16, 2, 0, 0, 4, 8, 1, 1, 1, 0, 5, 12, 0, 1, 1, 2, 2, 0, 2, 1, 2})
	// Self-referential-ish dense graph (likely cyclic).
	f.Add([]byte{4, 2, 1, 2, 3, 2, 1, 0, 2, 4, 1, 2, 2, 1, 6, 8, 2, 2, 0, 3, 7, 1, 0, 2, 1, 4})
	// Wide fan-out under a link flap.
	f.Add([]byte{3, 2, 9, 32, 0, 0, 0, 10, 16, 2, 1, 0, 4, 0, 1, 1, 1, 0, 2, 24, 0, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		wf, faultMode := decodeWorkflowFuzz(data)
		if wf == nil {
			t.Skip()
		}
		err := wf.Validate()
		if cyclic := hasCycleDFS(wf); cyclic != (err != nil) {
			t.Fatalf("cycle oracle says cyclic=%v, Validate says %v", cyclic, err)
		}
		if err != nil {
			return
		}

		nodeCfg := memnode.Config{DRAMBytes: 256 << 20, SpillBytes: 1 << 30}
		e := simtime.NewEngine()
		c := cluster.New(e, cluster.Config{
			Nodes: 2,
			Node: faas.Config{
				KeepAliveTimeout: time.Minute,
				Seed:             1,
			},
			Pool: rmem.Config{Node: &nodeCfg, Faults: fuzzFaultPlan(faultMode)},
		}, func() policy.Policy { return core.New(core.Config{}) })
		mgr := sharedmem.New(sharedmem.Config{Pool: c.Pool()})
		we, err := faas.NewWorkflowEngine(faas.WorkflowConfig{
			Engine:       e,
			Shared:       mgr,
			Register:     func(id string, prof *workload.Profile) { c.Register(id, prof) },
			Invoke:       c.Invoke,
			StatePassing: true,
		}, wf)
		if err != nil {
			t.Fatalf("valid workflow rejected by engine: %v", err)
		}
		we.Run(nil)
		e.RunUntil(simtime.Time(30 * time.Minute))

		st := we.Stats()
		if st.Completed != 1 {
			t.Fatalf("workflow did not complete: %+v", st)
		}
		want := faas.StageRequests(wf)
		if st.Invocations != want {
			t.Fatalf("invocations %d, want %d", st.Invocations, want)
		}
		cs := c.Stats()
		if cs.Submitted != want {
			t.Fatalf("submitted %d, want %d", cs.Submitted, want)
		}
		if done := cs.Recovery.DoneNormal + cs.Recovery.DoneRescheduled +
			cs.Recovery.DoneReinit; done != cs.Submitted {
			t.Fatalf("request conservation: normal %d + rescheduled %d + reinit %d != submitted %d",
				cs.Recovery.DoneNormal, cs.Recovery.DoneRescheduled, cs.Recovery.DoneReinit, cs.Submitted)
		}
		if !mgr.Drained() {
			t.Fatalf("regions leaked at drain: %+v", mgr.Stats())
		}
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatalf("region invariants: %v", err)
		}
		if err := c.Pool().Node().CheckInvariants(); err != nil {
			t.Fatalf("memnode invariants: %v", err)
		}
	})
}
