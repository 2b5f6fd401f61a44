package fastswap

import (
	"testing"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// instrumented returns a device sized to slots with its metrics attached.
func instrumented(slots int) (*Device, *telemetry.Registry) {
	d := NewDevice(Config{Slots: slots})
	reg := telemetry.NewRegistry()
	d.Instrument(reg)
	return d, reg
}

func truncations(reg *telemetry.Registry) int64 {
	return reg.Counter("faasmem_swap_full_truncations_total", "").Value()
}

func TestAllocateWithinCapacity(t *testing.T) {
	d, reg := instrumented(10)
	if got := d.Grant(0, 4); got != 4 {
		t.Fatalf("Grant(0, 4) = %d", got)
	}
	// Filling the last free slot exactly is not a truncation.
	if got := d.Grant(4, 6); got != 6 {
		t.Fatalf("Grant(4, 6) = %d", got)
	}
	if n := truncations(reg); n != 0 {
		t.Fatalf("%d truncations within capacity", n)
	}
}

func TestAllocateTruncatesAtCapacity(t *testing.T) {
	d, reg := instrumented(10)
	if got := d.Grant(8, 5); got != 2 {
		t.Fatalf("over-allocation granted %d, want 2", got)
	}
	if got := d.Grant(10, 1); got != 0 {
		t.Fatalf("full device granted %d", got)
	}
	if n := truncations(reg); n != 2 {
		t.Fatalf("truncations = %d, want 2", n)
	}
}

func TestReleaseReturnsSlots(t *testing.T) {
	// The grant follows the caller's occupancy: slots freed by swap-in or
	// teardown are grantable again, and the gauge shows what it is told.
	d, reg := instrumented(10)
	if got := d.Grant(10, 4); got != 0 {
		t.Fatalf("full device granted %d", got)
	}
	d.SetUsed(6)
	if got := d.Grant(6, 10); got != 4 {
		t.Fatalf("after release granted %d, want 4", got)
	}
	if got := reg.Gauge("faasmem_swap_slots_used", "").Value(); got != 6 {
		t.Fatalf("slot gauge = %d, want 6", got)
	}
}

func TestUnlimitedDevice(t *testing.T) {
	d, reg := instrumented(0)
	if got := d.Grant(1<<30, 1<<20); got != 1<<20 {
		t.Fatalf("unlimited grant = %d", got)
	}
	if n := truncations(reg); n != 0 {
		t.Fatalf("unlimited device truncated %d times", n)
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

func TestNegativePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"slots":    func() { NewDevice(Config{Slots: -1}) },
		"allocate": func() { NewDevice(Config{}).Grant(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative value did not panic", name)
				}
			}()
			fn()
		}()
	}
}
