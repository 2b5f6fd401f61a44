package cgroup

import (
	"math"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// PSI tracks memory pressure-stall information for one container, following
// the shape of Linux's PSI accounting that TMO's feedback loop consumes
// (paper §2.2, TMO reference [65]): the fraction of wall time recently spent
// stalled on memory (here: waiting on remote-memory faults), exposed as an
// exponentially-decayed average over a 10 s horizon, the kernel's avg10.
type PSI struct {
	last  simtime.Time
	avg10 float64
}

// NewPSI starts PSI accounting at virtual time start.
func NewPSI(start simtime.Time) *PSI { return &PSI{last: start} }

const psiWin10 = 10.0

// decayTo ages the average forward to now with its window half-life.
func (p *PSI) decayTo(now simtime.Time) {
	if now <= p.last {
		return
	}
	dt := (now - p.last).Seconds()
	p.avg10 *= math.Exp2(-dt / psiWin10)
	p.last = now
}

// AddStall records a stall of duration d that completed at virtual time now.
// The average absorbs the stall as "stalled seconds per window second".
func (p *PSI) AddStall(now simtime.Time, d time.Duration) {
	if d < 0 {
		panic("cgroup: negative stall")
	}
	p.decayTo(now)
	p.avg10 += d.Seconds() / psiWin10
}

// Avg10 returns the ~10 s stall fraction as of now (0 = no pressure;
// values can exceed 1 transiently after a stall burst, as in the kernel
// before windowing settles).
func (p *PSI) Avg10(now simtime.Time) float64 {
	p.decayTo(now)
	return p.avg10
}
