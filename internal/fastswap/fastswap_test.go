package fastswap

import (
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// slotGauge returns an instrumented device and its slot-occupancy gauge.
func slotGauge() (*Device, *telemetry.Metric) {
	d := NewDevice(Config{})
	reg := telemetry.NewRegistry()
	d.Instrument(reg)
	return d, reg.Gauge("faasmem_swap_slots_used", "")
}

func TestUnlimitedDevice(t *testing.T) {
	// The device has no capacity: the slot gauge shows whatever occupancy
	// the caller reports, however large.
	d, gauge := slotGauge()
	d.SetUsed(1 << 30)
	if got := gauge.Value(); got != 1<<30 {
		t.Fatalf("slot gauge = %d, want %d", got, 1<<30)
	}
}

func TestReleaseReturnsSlots(t *testing.T) {
	// Slots freed by swap-in or teardown leave the gauge: it follows the
	// caller's occupancy back down, to zero once every slot is released.
	d, gauge := slotGauge()
	d.SetUsed(10)
	d.SetUsed(6)
	if got := gauge.Value(); got != 6 {
		t.Fatalf("slot gauge = %d, want 6", got)
	}
	d.SetUsed(0)
	if got := gauge.Value(); got != 0 {
		t.Fatalf("slot gauge = %d after releasing every slot, want 0", got)
	}
}

func TestReadaheadConfig(t *testing.T) {
	if NewDevice(Config{ReadaheadPages: 8}).Readahead() != 8 {
		t.Error("readahead not configured")
	}
	if NewDevice(Config{ReadaheadPages: -1}).Readahead() != 0 {
		t.Error("negative readahead should clamp to 0")
	}
}
