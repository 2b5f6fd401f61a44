package rmem

import (
	"errors"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

func TestDefaultsApplied(t *testing.T) {
	p := NewPool(Config{})
	cfg := p.Config()
	if cfg.Bandwidth != 7_000_000_000 {
		t.Errorf("default bandwidth = %d, want 7e9 B/s (56 Gbps)", cfg.Bandwidth)
	}
	if cfg.FaultLatency != 15*time.Microsecond {
		t.Errorf("default fault latency = %v", cfg.FaultLatency)
	}
	if cfg.SaturationPoint != 0.8 {
		t.Errorf("default saturation point = %v", cfg.SaturationPoint)
	}
}

func TestOffloadAccountsUsedBytes(t *testing.T) {
	p := NewPool(Config{Capacity: 1 << 20})
	done, err := p.OffloadBytes(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Errorf("completion time = %v, want > 0", done)
	}
	if p.Used() != 4096 {
		t.Errorf("Used = %d, want 4096", p.Used())
	}
}

func TestOffloadZeroBytesIsFree(t *testing.T) {
	p := NewPool(Config{})
	done, err := p.OffloadBytes(time.Second, 0)
	if err != nil || done != time.Second {
		t.Fatalf("zero offload = (%v, %v)", done, err)
	}
}

func TestOffloadRespectsCapacity(t *testing.T) {
	p := NewPool(Config{Capacity: 8192})
	if _, err := p.OffloadBytes(0, 8192); err != nil {
		t.Fatal(err)
	}
	_, err := p.OffloadBytes(0, 1)
	if !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	if p.Used() != 8192 {
		t.Errorf("failed offload changed Used to %d", p.Used())
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	p := NewPool(Config{Capacity: 0})
	if _, err := p.OffloadBytes(0, 1<<40); err != nil {
		t.Fatalf("unlimited pool rejected offload: %v", err)
	}
}

func TestTransfersSerializeOnLink(t *testing.T) {
	// 1 MB/s link: 1 MB takes 1 s.
	p := NewPool(Config{Bandwidth: 1 << 20})
	d1, err := p.OffloadBytes(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.OffloadBytes(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d1 < 900*time.Millisecond || d1 > 1100*time.Millisecond {
		t.Errorf("first transfer done at %v, want ~1s", d1)
	}
	if d2 < d1+900*time.Millisecond {
		t.Errorf("second transfer done at %v, want queued after first (%v)", d2, d1)
	}
}

func TestRecallReturnsBytes(t *testing.T) {
	p := NewPool(Config{})
	p.OffloadBytes(0, 10000)
	done := p.RecallBytes(time.Second, 4000)
	if done < time.Second {
		t.Errorf("recall completes at %v, before request", done)
	}
	if p.Used() != 6000 {
		t.Errorf("Used after recall = %d, want 6000", p.Used())
	}
	// Recalling more than stored clamps.
	p.RecallBytes(2*time.Second, 1<<30)
	if p.Used() != 0 {
		t.Errorf("Used after over-recall = %d, want 0", p.Used())
	}
}

func TestFaultLatencyBase(t *testing.T) {
	p := NewPool(Config{FaultLatency: 6 * time.Microsecond})
	p.OffloadBytes(0, 4096)
	lat := p.FaultBatch(time.Hour, 1, 4096) // long after, link idle
	if lat < 6*time.Microsecond {
		t.Errorf("fault latency %v < base fetch latency", lat)
	}
	if lat > 20*time.Microsecond {
		t.Errorf("idle-link fault latency %v unexpectedly high", lat)
	}
	if p.Used() != 0 {
		t.Errorf("fault did not drain pool: used = %d", p.Used())
	}
}

func TestFaultLatencyGrowsWhenSaturated(t *testing.T) {
	p := NewPool(Config{Bandwidth: 1 << 20, FaultLatency: 6 * time.Microsecond})
	p.OffloadBytes(0, 100<<20) // keep pool stocked
	idle := p.FaultBatch(time.Hour, 1, 4096)

	// Saturate: record sustained traffic near bandwidth.
	now := 2 * time.Hour
	for i := 0; i < 50; i++ {
		p.meter[Offload].Record(now, 1<<20)
	}
	busy := p.FaultBatch(now, 1, 4096)
	if busy <= idle {
		t.Errorf("saturated fault %v not slower than idle fault %v", busy, idle)
	}
}

func TestDiscardDropsWithoutTransfer(t *testing.T) {
	p := NewPool(Config{})
	p.OffloadBytes(0, 10000)
	before := p.Meter(Recall).Total()
	p.Discard(0, 4000)
	if p.Used() != 6000 {
		t.Errorf("Used = %d, want 6000", p.Used())
	}
	if p.Meter(Recall).Total() != before {
		t.Error("Discard moved bytes through the link meter")
	}
	p.Discard(0, 1<<30)
	if p.Used() != 0 {
		t.Errorf("Used after over-discard = %d", p.Used())
	}
}

func TestNegativeSizesPanic(t *testing.T) {
	p := NewPool(Config{})
	for name, fn := range map[string]func(){
		"offload": func() { p.OffloadBytes(0, -1) },
		"recall":  func() { p.RecallBytes(0, -1) },
		"fault":   func() { p.FaultBatch(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with negative size did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMeterTotalsAndAverage(t *testing.T) {
	m := NewMeter(time.Second)
	m.Record(0, 1000)
	m.Record(time.Second, 1000)
	if m.Total() != 2000 {
		t.Errorf("Total = %d, want 2000", m.Total())
	}
	avg := m.Average(2 * time.Second)
	if avg != 1000 {
		t.Errorf("Average = %v B/s, want 1000", avg)
	}
	if m.Average(0) != 0 {
		t.Error("Average at start time should be 0")
	}
}

func TestMeterRateDecays(t *testing.T) {
	m := NewMeter(time.Second)
	m.Record(0, 1<<20)
	r0 := m.Rate(0)
	r1 := m.Rate(time.Second)
	r10 := m.Rate(10 * time.Second)
	if !(r0 > r1 && r1 > r10) {
		t.Errorf("rate not decaying: %v %v %v", r0, r1, r10)
	}
	// After one half-life the rate halves (within float tolerance).
	if r1 < r0*0.45 || r1 > r0*0.55 {
		t.Errorf("half-life decay: r1/r0 = %v, want ~0.5", r1/r0)
	}
}

func TestMeterEmptyRate(t *testing.T) {
	m := NewMeter(time.Second)
	if m.Rate(time.Hour) != 0 {
		t.Error("rate of silent meter should be 0")
	}
	if m.Average(time.Hour) != 0 {
		t.Error("average of silent meter should be 0")
	}
}

func TestMeterPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero half-life did not panic")
			}
		}()
		NewMeter(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative record did not panic")
			}
		}()
		NewMeter(time.Second).Record(0, -1)
	}()
}

func TestGovernorScaleIsOneUnderBudget(t *testing.T) {
	p := NewPool(Config{Bandwidth: 1 << 30})
	g := NewGovernor(p, 0.7)
	if s := g.Scale(0); s != 1 {
		t.Errorf("idle scale = %v, want 1", s)
	}
}

func TestGovernorThrottlesOverBudget(t *testing.T) {
	p := NewPool(Config{Bandwidth: 1 << 20}) // 1 MiB/s
	g := NewGovernor(p, 0.5)
	now := simtime.Time(time.Minute)
	// Sustain ~2 MiB/s of offload traffic (4x the 0.5 budget).
	for i := 0; i < 4; i++ {
		p.meter[Offload].Record(now, 512<<10)
	}
	s := g.Scale(now)
	if s >= 1 {
		t.Fatalf("scale = %v, want < 1 when over budget", s)
	}
	if s <= 0 {
		t.Fatalf("scale = %v, must stay positive", s)
	}
}

func TestGovernorBadLimitFallsBack(t *testing.T) {
	p := NewPool(Config{})
	for _, lim := range []float64{0, -1, 2} {
		g := NewGovernor(p, lim)
		if g.Limit != 0.7 {
			t.Errorf("limit %v: governor limit = %v, want fallback 0.7", lim, g.Limit)
		}
	}
}

func TestUtilization(t *testing.T) {
	p := NewPool(Config{Bandwidth: 1 << 20})
	if u := p.Utilization(0); u != 0 {
		t.Errorf("idle utilization = %v", u)
	}
	p.meter[Offload].Record(time.Second, 1<<20)
	if u := p.Utilization(time.Second); u <= 0 {
		t.Errorf("utilization after traffic = %v, want > 0", u)
	}
}

func TestFaultBatchPipelines(t *testing.T) {
	p := NewPool(Config{FaultLatency: 10 * time.Microsecond, FaultPipeline: 8})
	p.OffloadBytes(0, 1<<30)
	// 16 pages = 2 pipeline rounds of latency + wire time.
	lat := p.FaultBatch(time.Hour, 16, 4096)
	if lat < 20*time.Microsecond {
		t.Errorf("batch latency %v < 2 pipeline rounds", lat)
	}
	// Far cheaper than 16 sequential faults.
	if lat > 16*10*time.Microsecond {
		t.Errorf("batch latency %v not pipelined", lat)
	}
	if p.Used() != 1<<30-16*4096 {
		t.Errorf("batch did not drain pool: %d", p.Used())
	}
}

func TestFaultBatchZero(t *testing.T) {
	p := NewPool(Config{})
	if lat := p.FaultBatch(0, 0, 4096); lat != 0 {
		t.Errorf("zero batch latency = %v", lat)
	}
}

func TestFaultBatchNegativePanics(t *testing.T) {
	p := NewPool(Config{})
	defer func() {
		if recover() == nil {
			t.Error("negative batch did not panic")
		}
	}()
	p.FaultBatch(0, -1, 4096)
}

func TestPresets(t *testing.T) {
	cxl := NewPool(CXLConfig())
	rdma := NewPool(Config{})
	ssd := NewPool(SSDConfig())
	if cxl.Config().FaultLatency >= rdma.Config().FaultLatency {
		t.Error("CXL faults should be faster than RDMA")
	}
	if cxl.Config().Bandwidth <= rdma.Config().Bandwidth {
		t.Error("CXL bandwidth should exceed RDMA")
	}
	if ssd.Config().Bandwidth != 1_000_000 {
		t.Errorf("SSD bandwidth = %d, want durability-limited 1 MB/s", ssd.Config().Bandwidth)
	}
	if ssd.Config().FaultLatency <= rdma.Config().FaultLatency {
		t.Error("SSD faults should be slower than RDMA")
	}
}

func TestAcceptableBytesRespectsBacklog(t *testing.T) {
	p := NewPool(Config{Bandwidth: 1 << 20, MaxBacklog: time.Second})
	// Idle link: one second of bandwidth.
	if got := p.AcceptableBytes(0); got != 1<<20 {
		t.Fatalf("idle budget = %d, want 1 MiB", got)
	}
	// Saturate the backlog.
	p.OffloadBytes(0, 1<<20)
	if got := p.AcceptableBytes(0); got > 4096 {
		t.Fatalf("budget after saturation = %d, want ~0", got)
	}
	// Budget recovers as virtual time passes.
	if got := p.AcceptableBytes(500 * time.Millisecond); got < 400<<10 {
		t.Fatalf("budget at +500ms = %d, want ~512 KiB", got)
	}
}

func TestAcceptableBytesRespectsCapacity(t *testing.T) {
	p := NewPool(Config{Capacity: 8192, MaxBacklog: time.Hour})
	p.OffloadBytes(0, 4096)
	if got := p.AcceptableBytes(time.Hour); got != 4096 {
		t.Fatalf("budget = %d, want remaining capacity 4096", got)
	}
}
