package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
	"github.com/faasmem/faasmem/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// flowLedgerRack runs a small rack that drives every pool byte movement at
// once: three tenants over a tiny-DRAM memory node with cross-tenant merging
// and a shared cache (offload, compress, spill, merge), write-hot runtime
// pages (copy-on-write unmerge), readahead and demand faults (recall,
// fault), a fault plan recovered through the local swap copy (fallback),
// recycled containers (discard), and a workflow passing state through pool
// regions (share-read). It returns the run's timeline recorder and metric
// registry.
func flowLedgerRack() (*timeseries.Recorder, *telemetry.Registry) {
	const (
		d         = 6 * time.Minute
		keepAlive = 4 * time.Minute
		tenants   = 3
	)
	horizon := d + keepAlive + time.Minute
	fns := mixedWorkload(d, 3)
	tenantOf := make(map[string]string, len(fns))
	for i, f := range fns {
		tenantOf[f.prof.Name] = fmt.Sprintf("t%d", i%tenants)
	}
	nodeCfg := memnode.Config{
		DRAMBytes:  96 << 20,
		SpillBytes: 512 << 20,
		MergeScope: memnode.MergeCrossTenant,
		MergeOptIn: []string{"t0", "t1"},
		TenantOf:   func(fn string) string { return tenantOf[fn] },
		CacheBytes: 32 << 20,
	}
	rec := timeseries.NewRecorder(timeseries.Config{Window: 30 * time.Second})
	reg := telemetry.NewRegistry()
	e := simtime.NewEngine()
	c := cluster.New(e, cluster.Config{
		Nodes: 2,
		Node: faas.Config{
			KeepAliveTimeout: keepAlive,
			Seed:             3,
			Swap: faas.SwapConfig{
				ReadaheadPages:      8,
				FallbackReadLatency: 50 * time.Microsecond,
			},
			Telemetry: telemetry.Hub{Timeline: rec, Reg: reg},
		},
		Pool: rmem.Config{
			Node:   &nodeCfg,
			Faults: faultinject.New(faultinject.Config{Horizon: horizon, Intensity: 0.8, Seed: 5}),
		},
	}, func() policy.Policy { return core.New(core.Config{}) })
	for _, f := range fns {
		p := *f.prof
		p.RuntimeWriteRatio = 0.3
		c.Register(p.Name, &p)
		c.ScheduleInvocations(p.Name, f.inv)
	}
	wf, err := workload.WorkflowByName("pipeline")
	if err != nil {
		panic(err)
	}
	we, err := faas.NewWorkflowEngine(faas.WorkflowConfig{
		Engine:       e,
		Shared:       sharedmem.New(sharedmem.Config{Pool: c.Pool()}),
		Register:     func(id string, prof *workload.Profile) { c.Register(id, prof) },
		Invoke:       c.Invoke,
		StatePassing: true,
	}, wf)
	if err != nil {
		panic(err)
	}
	for at := 30 * time.Second; at < d; at += time.Minute {
		e.At(simtime.Time(at), func(*simtime.Engine) { we.Run(nil) })
	}
	e.RunUntil(horizon)
	return rec, reg
}

// flowLedgerText renders the ledger's byte totals per (flow, node, tenant,
// class), in flow-kind order, followed by the conservation audit.
func flowLedgerText(rec *timeseries.Recorder) []byte {
	type key struct{ flow, node, tenant, class string }
	totals := map[key]int64{}
	for _, r := range rec.FlowRows() {
		totals[key{r.Flow, r.Node, r.Tenant, r.Class}] += r.Bytes
	}
	keys := make([]key, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.flow != b.flow {
			return flowOrderOf(a.flow) < flowOrderOf(b.flow)
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.class < b.class
	})
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "flow\tnode\ttenant\tclass\tbytes")
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s\t%s\t%s\t%s\t%d\n", k.flow, k.node, k.tenant, k.class, totals[k])
	}
	a := timeseries.AuditFlows(rec)
	fmt.Fprintf(&buf, "audit runs=%d checks=%d violations=%d ok=%v\n", a.Runs, a.Checks, a.Violations, a.OK)
	return buf.Bytes()
}

func flowOrderOf(name string) int {
	for k := timeseries.FlowKind(0); k < timeseries.NumFlows; k++ {
		if k.String() == name {
			return int(k)
		}
	}
	return int(timeseries.NumFlows)
}

// TestFlowLedgerGolden pins the pool's byte-flow ledger — every flow kind's
// bytes per node, tenant and page class, and the conservation audit's
// checkpoint count — for a rack run that exercises all ten flow kinds, so
// any change to how a pool byte movement is attributed or checkpointed
// shows up as a diff. The memory node's tier moves must read the same in
// /metrics as in the ledger. Run with -update to rewrite the golden file.
func TestFlowLedgerGolden(t *testing.T) {
	rec, reg := flowLedgerRack()
	tot := rec.FlowTotals()
	for k := timeseries.FlowKind(0); k < timeseries.NumFlows; k++ {
		if tot[k] == 0 {
			t.Errorf("flow kind %s moved no bytes; the run must exercise all %d kinds", k, timeseries.NumFlows)
		}
	}
	pages := map[string]int64{}
	for _, s := range reg.Snapshot() {
		pages[s.Name] = s.Value
	}
	for _, tier := range []struct {
		family string
		kind   timeseries.FlowKind
	}{
		{"faasmem_memnode_compressed_pages_total", timeseries.FlowCompress},
		{"faasmem_memnode_spilled_pages_total", timeseries.FlowSpill},
		{"faasmem_memnode_merged_pages_total", timeseries.FlowMerge},
	} {
		n, ok := pages[tier.family]
		if !ok {
			t.Errorf("/metrics has no %s", tier.family)
		} else if b := n * pagemem.DefaultPageSize; b != tot[tier.kind] {
			t.Errorf("%s is %d B in pages, but the %s flow is %d B", tier.family, b, tier.kind, tot[tier.kind])
		}
	}
	if a := timeseries.AuditFlows(rec); !a.OK || a.Checks == 0 {
		t.Errorf("flow audit = runs %d, checks %d, violations %d, ok %v", a.Runs, a.Checks, a.Violations, a.OK)
	}
	got := flowLedgerText(rec)
	golden := filepath.Join("testdata", "flow_ledger_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flow ledger drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
