// Package rmem_test exercises ErrPoolFull from the outside: a full pool must
// clamp a pucket offload at the platform layer, leaving the unaccepted pages
// local instead of losing them.
package rmem_test

import (
	"errors"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// drainPolicy offloads every runtime/init page whenever a container idles —
// the most aggressive pucket drain possible, guaranteed to hit a tiny pool's
// capacity wall.
type drainPolicy struct{}

func (drainPolicy) Name() string { return "drain-all" }
func (drainPolicy) Attach(e *simtime.Engine, v policy.View) policy.ContainerPolicy {
	return &drainContainer{view: v}
}

type drainContainer struct {
	policy.Base
	view policy.View
}

func (c *drainContainer) Idle(e *simtime.Engine) {
	for _, r := range []pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		c.view.OffloadPages(e, []pagemem.Selection{{R: r, St: pagemem.Inactive}, {R: r, St: pagemem.Hot}}, 0)
	}
}

func drainProfile() *workload.Profile {
	return &workload.Profile{
		Name:            "drain",
		Language:        workload.Python,
		CPUShare:        0.1,
		RuntimeBytes:    1 * workload.MB,
		RuntimeHotBytes: 256 * 1024,
		InitBytes:       512 * 1024,
		InitHotBytes:    256 * 1024,
		Pattern:         workload.FixedHot,
		ExecBytes:       256 * 1024,
		ExecTime:        100 * time.Millisecond,
		InitTime:        200 * time.Millisecond,
		LaunchTime:      300 * time.Millisecond,
		QuotaBytes:      8 * workload.MB,
	}
}

func TestErrPoolFullDirect(t *testing.T) {
	p := rmem.NewPool(rmem.Config{Capacity: 4096})
	if _, _, _, err := p.OffloadDescribed(0, "c0", "fn", runtimePages(1)); err != nil {
		t.Fatal(err)
	}
	// One more byte tips over.
	_, _, _, err := p.OffloadDescribed(0, "c0", "fn", runtimePages(1))
	if !errors.Is(err, rmem.ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
}

func TestPucketOffloadClampsAtFullPool(t *testing.T) {
	const capacity = 16 * 4096 // far less than the ~384 drainable pages
	e := simtime.NewEngine()
	p := faas.New(e, faas.Config{
		KeepAliveTimeout: 10 * time.Second,
		Pool:             rmem.Config{Capacity: capacity},
		Seed:             1,
	}, drainPolicy{})
	p.Register("f", drainProfile())
	p.ScheduleInvocations("f", []simtime.Time{0, 2 * time.Second})
	// Stop while the container idles in keep-alive, after the post-request
	// drain hit the capacity wall.
	e.RunUntil(4 * time.Second)

	// The pool never overfills, no matter how hard the policy drains.
	if used := p.Pool().Used(); used > capacity {
		t.Fatalf("pool used %d exceeds capacity %d", used, capacity)
	}
	// The clamp keeps the unaccepted pages local: node-local memory stays
	// populated and remote never exceeds what the pool admitted.
	if p.NodeRemoteBytes() > capacity {
		t.Fatalf("remote bytes %d exceed pool capacity", p.NodeRemoteBytes())
	}
	if p.NodeLocalBytes() == 0 {
		t.Fatal("every page left local memory despite the full pool")
	}
	// Both requests still completed — ErrPoolFull degrades offloading, not
	// request service.
	e.Run()
	agg := p.Aggregate()
	if agg.Requests != 2 {
		t.Fatalf("requests = %d, want 2", agg.Requests)
	}
}
