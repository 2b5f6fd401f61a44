// Package faultinject generates deterministic, seed-driven fault plans for
// the remote-memory path: virtual-time schedules of link flaps, bandwidth
// degradation windows, pool-node crashes, memnode tier-full storms, and
// fault-latency spikes. A plan is built once before a run and injected
// beneath rmem and the swap path; the recovery machinery (bounded retry,
// fetch timeouts, local-swap fallback, cold re-init, degraded-mode governor
// clamps, cluster rescheduling) reacts to the plan's windows.
//
// Design constraints, matching the rest of the simulator:
//
//   - Deterministic. A plan is a pure function of its Config: window start
//     times and base severities are drawn from a seeded PRNG whose draw
//     sequence does not depend on Intensity, so sweeping intensity perturbs
//     window lengths and severities without reshuffling the schedule —
//     higher intensity strictly extends the outages of lower intensity.
//   - Zero-cost when off. Intensity 0 (or a nil plan) yields Empty() == true
//     and consumers drop the plan entirely, so a run without faults is
//     bit-identical to a build without this package.
//   - Virtual time only. Windows are simtime intervals; queries are pure
//     reads, safe to probe at future instants (retry backoff probing).
package faultinject

import (
	"fmt"
	"sort"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
)

// Kind labels one fault mechanism.
type Kind uint8

// The fault kinds, each an independent window schedule.
const (
	// LinkFlap takes the pool link fully down: fetches and offloads fail
	// until the window closes.
	LinkFlap Kind = iota
	// LinkDegrade divides link bandwidth by the window's severity: transfers
	// stretch and the saturation surcharge bites earlier.
	LinkDegrade
	// PoolCrash takes the memory node down: remote pages are unreachable
	// and the cluster reschedules requests away until recovery.
	PoolCrash
	// TierStorm makes the memnode report zero admissible headroom (tiers
	// full): offloads are rejected, fetches still work.
	TierStorm
	// LatencySpike multiplies the per-fetch fault latency by the window's
	// severity (congested fabric, slow remote CPU).
	LatencySpike
	numKinds
)

var kindNames = [numKinds]string{
	LinkFlap:     "link-flap",
	LinkDegrade:  "link-degrade",
	PoolCrash:    "pool-crash",
	TierStorm:    "tier-storm",
	LatencySpike: "latency-spike",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Window is one scheduled fault interval [Start, End).
type Window struct {
	Kind  Kind         `json:"kind"`
	Start simtime.Time `json:"start"`
	End   simtime.Time `json:"end"`
	// Factor is the severity for LinkDegrade (bandwidth divisor > 1) and
	// LatencySpike (latency multiplier > 1); 0 for the binary kinds.
	Factor float64 `json:"factor,omitempty"`
}

// Config parameterizes plan generation.
type Config struct {
	// Horizon bounds the schedule; no window starts at or past it.
	Horizon time.Duration
	// Intensity in [0, 1] scales window durations and severities. 0 yields
	// an empty plan.
	Intensity float64
	// Seed drives the schedule. The same seed at different intensities
	// yields the same window start times.
	Seed int64
}

// cadence is each kind's mean gap between window starts.
var cadence = [numKinds]time.Duration{
	LinkFlap:     90 * time.Second,
	LinkDegrade:  150 * time.Second,
	PoolCrash:    300 * time.Second,
	TierStorm:    180 * time.Second,
	LatencySpike: 75 * time.Second,
}

// baseDur is each kind's base window duration at full intensity.
var baseDur = [numKinds]time.Duration{
	LinkFlap:     8 * time.Second,
	LinkDegrade:  40 * time.Second,
	PoolCrash:    25 * time.Second,
	TierStorm:    20 * time.Second,
	LatencySpike: 20 * time.Second,
}

// Plan is an immutable fault schedule. A nil *Plan is the empty plan.
type Plan struct {
	byKind [numKinds][]Window // sorted by Start, non-overlapping per kind
	all    []Window           // every window, sorted by (Start, Kind)
}

// New generates a plan from cfg. Intensity <= 0 or Horizon <= 0 yields an
// empty (but non-nil) plan; callers should then drop it via Empty().
func New(cfg Config) *Plan {
	p := &Plan{}
	if cfg.Horizon <= 0 || cfg.Intensity <= 0 {
		return p
	}
	intensity := cfg.Intensity
	if intensity > 1 {
		intensity = 1
	}
	for k := Kind(0); k < numKinds; k++ {
		// One PRNG stream per kind so lengthening the horizon never
		// reshuffles the others.
		rng := lazyrand.New(cfg.Seed*int64(numKinds) + int64(k) + 1)
		var t simtime.Time
		for {
			// Draws happen every iteration regardless of intensity so the
			// schedule is intensity-invariant.
			gap := time.Duration((0.6 + 0.8*rng.Float64()) * float64(cadence[k]))
			durDraw := 0.5 + rng.Float64()
			sevDraw := rng.Float64()
			t += gap
			if t >= cfg.Horizon {
				break
			}
			dur := time.Duration(durDraw * intensity * float64(baseDur[k]))
			if dur <= 0 {
				continue
			}
			w := Window{Kind: k, Start: t, End: t + dur}
			switch k {
			case LinkDegrade:
				// Bandwidth divided by 2..6 at full intensity.
				w.Factor = 1 + (1+3*sevDraw)*intensity
			case LatencySpike:
				// Fault latency multiplied by 2..8 at full intensity.
				w.Factor = 1 + (1+6*sevDraw)*intensity
			}
			p.byKind[k] = append(p.byKind[k], w)
		}
		p.byKind[k] = mergeWindows(p.byKind[k])
		p.all = append(p.all, p.byKind[k]...)
	}
	sort.SliceStable(p.all, func(i, j int) bool {
		if p.all[i].Start != p.all[j].Start {
			return p.all[i].Start < p.all[j].Start
		}
		return p.all[i].Kind < p.all[j].Kind
	})
	return p
}

// FromWindows builds a plan from an explicit window list (tests, handcrafted
// scenarios). Windows may be unsorted; empty or inverted ones are dropped and
// per-kind overlaps are merged.
func FromWindows(ws []Window) *Plan {
	p := &Plan{}
	for _, w := range ws {
		if w.End <= w.Start || int(w.Kind) >= int(numKinds) {
			continue
		}
		p.byKind[w.Kind] = append(p.byKind[w.Kind], w)
	}
	for k := Kind(0); k < numKinds; k++ {
		sort.SliceStable(p.byKind[k], func(i, j int) bool {
			return p.byKind[k][i].Start < p.byKind[k][j].Start
		})
		p.byKind[k] = mergeWindows(p.byKind[k])
		p.all = append(p.all, p.byKind[k]...)
	}
	sort.SliceStable(p.all, func(i, j int) bool {
		if p.all[i].Start != p.all[j].Start {
			return p.all[i].Start < p.all[j].Start
		}
		return p.all[i].Kind < p.all[j].Kind
	})
	return p
}

// mergeWindows collapses overlapping/adjacent windows of one kind, keeping
// the stronger Factor over the merged span. Input must be sorted by Start.
func mergeWindows(ws []Window) []Window {
	if len(ws) < 2 {
		return ws
	}
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			if w.Factor > last.Factor {
				last.Factor = w.Factor
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// Empty reports whether the plan schedules nothing. A nil plan is empty.
func (p *Plan) Empty() bool { return p == nil || len(p.all) == 0 }

// Windows returns every scheduled window sorted by start time.
func (p *Plan) Windows() []Window {
	if p == nil {
		return nil
	}
	return p.all
}

// active returns the kind's window covering now, if any. Windows per kind
// are sorted and non-overlapping, so a binary search suffices.
func (p *Plan) active(k Kind, now simtime.Time) (Window, bool) {
	ws := p.byKind[k]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].End > now })
	if i < len(ws) && ws[i].Start <= now {
		return ws[i], true
	}
	return Window{}, false
}

// LinkDown reports whether the link is flapped out at now.
func (p *Plan) LinkDown(now simtime.Time) bool {
	if p == nil {
		return false
	}
	_, ok := p.active(LinkFlap, now)
	return ok
}

// PoolDown reports whether the memory node is crashed at now.
func (p *Plan) PoolDown(now simtime.Time) bool {
	if p == nil {
		return false
	}
	_, ok := p.active(PoolCrash, now)
	return ok
}

// TierStorm reports whether the memnode's tiers are storming (zero
// admissible headroom) at now.
func (p *Plan) TierStorm(now simtime.Time) bool {
	if p == nil {
		return false
	}
	_, ok := p.active(TierStorm, now)
	return ok
}

// Unhealthy reports whether the remote path is unusable at now (link down or
// pool node crashed) — the degraded-mode predicate.
func (p *Plan) Unhealthy(now simtime.Time) bool {
	return p.LinkDown(now) || p.PoolDown(now)
}

// ActiveKinds counts the distinct fault kinds with a window in force at
// now — the timeline's "how faulted is this instant" gauge.
func (p *Plan) ActiveKinds(now simtime.Time) int {
	if p == nil {
		return 0
	}
	n := 0
	for k := Kind(0); k < numKinds; k++ {
		if _, ok := p.active(k, now); ok {
			n++
		}
	}
	return n
}

// LatencyFactor returns the fault-latency multiplier at now (>= 1).
func (p *Plan) LatencyFactor(now simtime.Time) float64 {
	if p == nil {
		return 1
	}
	if w, ok := p.active(LatencySpike, now); ok && w.Factor > 1 {
		return w.Factor
	}
	return 1
}

// BandwidthFactor returns the link-bandwidth multiplier at now (<= 1): 1
// when healthy, 1/Factor inside a degrade window.
func (p *Plan) BandwidthFactor(now simtime.Time) float64 {
	if p == nil {
		return 1
	}
	if w, ok := p.active(LinkDegrade, now); ok && w.Factor > 1 {
		return 1 / w.Factor
	}
	return 1
}

// NextTransition returns the earliest window boundary strictly after now, or
// (0, false) when the schedule is exhausted. Every time-dependent reading of
// the plan is constant between two transitions, which is what lets the
// pool's timeline sampler record a span of windows in pieces, not per
// window.
func (p *Plan) NextTransition(now simtime.Time) (simtime.Time, bool) {
	if p == nil {
		return 0, false
	}
	best := simtime.Time(0)
	found := false
	for _, w := range p.all {
		for _, t := range [2]simtime.Time{w.Start, w.End} {
			if t > now && (!found || t < best) {
				best, found = t, true
			}
		}
		if w.Start > now && found && w.Start >= best {
			break
		}
	}
	return best, found
}

// UnhealthyFraction returns the fraction of [0, horizon) covered by the
// union of LinkFlap and PoolCrash windows — the share of the run the remote
// path was unusable.
func (p *Plan) UnhealthyFraction(horizon time.Duration) float64 {
	if p == nil || horizon <= 0 {
		return 0
	}
	merged := mergeWindows(sortedUnion(p.byKind[LinkFlap], p.byKind[PoolCrash]))
	var covered time.Duration
	for _, w := range merged {
		start, end := w.Start, w.End
		if end > horizon {
			end = horizon
		}
		if start >= horizon || end <= start {
			continue
		}
		covered += time.Duration(end - start)
	}
	return covered.Seconds() / horizon.Seconds()
}

// sortedUnion merges two Start-sorted window slices into one sorted slice.
func sortedUnion(a, b []Window) []Window {
	out := make([]Window, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Start <= b[j].Start) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}
