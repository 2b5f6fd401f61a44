package cgroup

import (
	"math"
	"testing"
	"time"
)

func TestChargeUncharge(t *testing.T) {
	l := NewLedger(0)
	l.Apply(0, 1000)
	if l.LocalBytes() != 1000 {
		t.Fatalf("LocalBytes = %d, want 1000", l.LocalBytes())
	}
	l.Apply(time.Second, -400)
	if l.LocalBytes() != 600 || l.RemoteBytes() != 0 {
		t.Fatalf("local/remote = %d/%d, want 600/0", l.LocalBytes(), l.RemoteBytes())
	}
}

func TestOffloadMovesResidency(t *testing.T) {
	l := NewLedger(0)
	l.Apply(0, 1000)
	l.Apply(time.Second, -300, 300)
	if l.LocalBytes() != 700 || l.RemoteBytes() != 300 {
		t.Fatalf("local/remote = %d/%d, want 700/300", l.LocalBytes(), l.RemoteBytes())
	}
}

func TestRecallMovesBack(t *testing.T) {
	l := NewLedger(0)
	l.Apply(0, 1000)
	l.Apply(time.Second, -500, 500)
	l.Apply(2*time.Second, 200, -200)
	if l.LocalBytes() != 700 || l.RemoteBytes() != 300 {
		t.Fatalf("local/remote = %d/%d, want 700/300", l.LocalBytes(), l.RemoteBytes())
	}
}

func TestDropRemote(t *testing.T) {
	// A recycle drops the container's local and remote bytes together.
	l := NewLedger(0)
	l.Apply(0, 300)
	l.Apply(0, -100, 100)
	l.Apply(time.Second, -200, -100)
	if l.LocalBytes() != 0 || l.RemoteBytes() != 0 {
		t.Fatalf("local/remote = %d/%d, want 0/0", l.LocalBytes(), l.RemoteBytes())
	}
}

func TestAvgLocalBytesTimeWeighted(t *testing.T) {
	l := NewLedger(0)
	l.Apply(0, 1000)
	l.Apply(10*time.Second, -500, 500) // 1000 for 10s, then 500 for 10s
	got := l.AvgLocalBytes(20 * time.Second)
	if math.Abs(got-750) > 1e-9 {
		t.Fatalf("AvgLocalBytes = %v, want 750", got)
	}
	if gotR := l.AvgRemoteBytes(20 * time.Second); math.Abs(gotR-250) > 1e-9 {
		t.Fatalf("AvgRemoteBytes = %v, want 250", gotR)
	}
}

func TestPeakLocal(t *testing.T) {
	l := NewLedger(0)
	l.Apply(0, 100)
	l.Apply(time.Second, 400)
	l.Apply(2*time.Second, -450)
	if l.PeakLocalBytes() != 500 {
		t.Fatalf("PeakLocalBytes = %d, want 500", l.PeakLocalBytes())
	}
}

func TestPSIStartsAtZero(t *testing.T) {
	p := NewPSI(0)
	if p.Avg10(time.Minute) != 0 {
		t.Fatal("fresh PSI should be zero")
	}
}

func TestPSIStallRaisesAverages(t *testing.T) {
	p := NewPSI(0)
	p.AddStall(10*time.Second, 2*time.Second)
	// A 2 s stall lands as 2/10 of the window, undecayed at its own instant.
	if got := p.Avg10(10 * time.Second); got != 0.2 {
		t.Fatalf("avg10 = %v, want 0.2", got)
	}
}

func TestPSIDecays(t *testing.T) {
	p := NewPSI(0)
	p.AddStall(0, time.Second)
	early := p.Avg10(time.Second)
	late := p.Avg10(time.Minute)
	if late >= early {
		t.Fatalf("avg10 did not decay: %v -> %v", early, late)
	}
	// After 10 half-lives it is essentially gone.
	if p.Avg10(2*time.Minute) > early/100 {
		t.Fatal("avg10 decays too slowly")
	}
}

func TestPSISustainedStallApproachesFraction(t *testing.T) {
	// Stalling 50% of every second converges near 0.5 on the 10 s window
	// (geometric series of per-second contributions).
	p := NewPSI(0)
	for i := 1; i <= 200; i++ {
		p.AddStall(time.Duration(i)*time.Second, 500*time.Millisecond)
	}
	got := p.Avg10(200 * time.Second)
	if got < 0.4 || got > 0.9 {
		t.Fatalf("sustained 50%% stall: avg10 = %v, want ~0.5-0.7", got)
	}
}

func TestPSINegativeStallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative stall did not panic")
		}
	}()
	NewPSI(0).AddStall(0, -time.Second)
}
