package trace

import (
	"slices"
	"time"

	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/simtime"
)

// KeepAliveResult summarizes a keep-alive container-pool simulation of one
// function's timeline — the analytic behind the paper's Figures 1, 5 and 14
// and the semi-warm timing data of §6.1.
type KeepAliveResult struct {
	// ColdStarts counts requests that found no idle warm container.
	ColdStarts int
	// WarmStarts counts requests served by an idle warm container.
	WarmStarts int
	// ActiveTime is total container time spent executing requests.
	ActiveTime time.Duration
	// InactiveTime is total container time spent idle in keep-alive.
	InactiveTime time.Duration
	// RequestsPerContainer lists how many requests each container served.
	RequestsPerContainer []int
	// ReusedIntervals keeps, for the last 512 warm starts, how long the
	// container had been idle (the "container reused interval" of §6.1).
	// Merge leaves it out: no reader wants a cross-function one.
	ReusedIntervals metrics.Recent
}

// Lifetime is active plus inactive container time.
func (r KeepAliveResult) Lifetime() time.Duration { return r.ActiveTime + r.InactiveTime }

// InactiveFraction is the share of container lifetime spent idle — the
// paper's "memory inactive time" (89.2% at a 10-minute timeout).
func (r KeepAliveResult) InactiveFraction() float64 {
	lt := r.Lifetime()
	if lt == 0 {
		return 0
	}
	return float64(r.InactiveTime) / float64(lt)
}

// ColdStartRatio is the fraction of requests that cold-started.
func (r KeepAliveResult) ColdStartRatio() float64 {
	total := r.ColdStarts + r.WarmStarts
	if total == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(total)
}

// Merge accumulates other into r, all but its ReusedIntervals.
func (r *KeepAliveResult) Merge(other KeepAliveResult) {
	r.ColdStarts += other.ColdStarts
	r.WarmStarts += other.WarmStarts
	r.ActiveTime += other.ActiveTime
	r.InactiveTime += other.InactiveTime
	r.RequestsPerContainer = append(r.RequestsPerContainer, other.RequestsPerContainer...)
}

// container tracks one simulated container's occupancy.
type kaContainer struct {
	busyUntil simtime.Time // executing until then
	idleSince simtime.Time // start of current idle period (== busyUntil)
	launched  simtime.Time
	seq       int // launch order, for deterministic tie-breaking
	requests  int
	active    time.Duration
}

// SimulateKeepAlive replays one function's invocations against an elastic
// container pool with the given execution time per request and keep-alive
// timeout. Requests that find an idle warm container reuse it (earliest-idle
// first, matching typical FIFO reuse); otherwise a new container launches.
// Idle containers are recycled after timeout.
//
// For sorted invocations (the trace invariant) the pool is a FIFO deque
// ordered by idleSince — a container finishing its request is always the
// newest idler, so expiry pops from the front and the longest-idle pick *is*
// the front — which makes the whole replay O(n) instead of the reference's
// O(n·pool). An unsorted timeline is replayed as its sorted copy, the order
// a discrete-event simulation fires the arrivals in.
func SimulateKeepAlive(invocations []simtime.Time, execTime, timeout time.Duration) KeepAliveResult {
	return simulateKeepAlive(invocations, execTime, timeout, true)
}

// SimulateKeepAliveScalars is SimulateKeepAlive minus the distributions
// (RequestsPerContainer and ReusedIntervals): only the counters and
// active/inactive times are filled. Sweeps that read aggregate ratios alone
// (Figure 1 runs one simulation per trace function per timeout) skip their
// churn entirely.
func SimulateKeepAliveScalars(invocations []simtime.Time, execTime, timeout time.Duration) KeepAliveResult {
	return simulateKeepAlive(invocations, execTime, timeout, false)
}

func simulateKeepAlive(invocations []simtime.Time, execTime, timeout time.Duration, collect bool) KeepAliveResult {
	if !slices.IsSorted(invocations) {
		invocations = slices.Clone(invocations)
		slices.Sort(invocations)
	}

	var res KeepAliveResult
	// idle is a FIFO deque of idle containers in ascending idleSince order:
	// drained at pool[head:]. Every idle container by definition has
	// busyUntil == idleSince <= now once its request finished, and new idlers
	// always carry idleSince = at+execTime >= every previous entry.
	var pool []kaContainer
	head := 0
	seq := 0

	retire := func(c *kaContainer, at simtime.Time) {
		res.ActiveTime += c.active
		res.InactiveTime += (at - c.launched) - c.active
		if collect {
			res.RequestsPerContainer = append(res.RequestsPerContainer, c.requests)
		}
	}

	for _, at := range invocations {
		// Expire idle containers whose keep-alive lapsed before this request;
		// they are exactly a prefix of the deque.
		for head < len(pool) && at-pool[head].idleSince > timeout {
			retire(&pool[head], pool[head].idleSince+timeout)
			head++
		}

		// The front of the deque has waited longest. On an exact idleSince
		// tie the reference picks the earliest-launched container, so scan
		// the tied prefix for the minimal launch sequence — ties only occur
		// between invocations sharing a timestamp, so the prefix is short.
		var c kaContainer
		if head < len(pool) && pool[head].idleSince <= at {
			pick := head
			for i := head + 1; i < len(pool) &&
				pool[i].idleSince == pool[head].idleSince; i++ {
				if pool[i].seq < pool[pick].seq {
					pick = i
				}
			}
			c = pool[pick]
			copy(pool[head+1:pick+1], pool[head:pick])
			head++
			res.WarmStarts++
			if collect {
				res.ReusedIntervals.Push(at - c.idleSince)
			}
		} else {
			c = kaContainer{launched: at, seq: seq}
			seq++
			res.ColdStarts++
		}
		c.requests++
		c.active += execTime
		c.busyUntil = at + execTime
		c.idleSince = c.busyUntil
		pool = append(pool, c)

		// Compact the consumed prefix once it dominates the backing array.
		if head > 64 && head > len(pool)/2 {
			n := copy(pool, pool[head:])
			pool = pool[:n]
			head = 0
		}
	}

	// Drain: every surviving container idles out after its timeout.
	for i := head; i < len(pool); i++ {
		retire(&pool[i], pool[i].idleSince+timeout)
	}
	return res
}

// SimulateTraceKeepAlive runs SimulateKeepAlive for every function and
// merges the results.
func SimulateTraceKeepAlive(t *Trace, execTime, timeout time.Duration) KeepAliveResult {
	return SimulateTraceKeepAliveFunc(t, func(int, *Function) time.Duration { return execTime }, timeout)
}

// SimulateTraceKeepAliveFunc is SimulateTraceKeepAlive with a per-function
// execution time, for traces whose functions have heterogeneous durations
// (the Azure trace's durations span milliseconds to minutes, which shapes
// the Fig. 1 inactive-time curve at short keep-alive timeouts).
func SimulateTraceKeepAliveFunc(t *Trace, execOf func(i int, f *Function) time.Duration, timeout time.Duration) KeepAliveResult {
	var res KeepAliveResult
	for i, f := range t.Functions {
		res.Merge(SimulateKeepAlive(f.Invocations, execOf(i, f), timeout))
	}
	return res
}

// SimulateTraceKeepAliveScalarsFunc is SimulateTraceKeepAliveFunc in
// scalars-only mode: the merged result carries counters and times but no
// per-container distributions.
func SimulateTraceKeepAliveScalarsFunc(t *Trace, execOf func(i int, f *Function) time.Duration, timeout time.Duration) KeepAliveResult {
	var res KeepAliveResult
	for i, f := range t.Functions {
		res.Merge(SimulateKeepAliveScalars(f.Invocations, execOf(i, f), timeout))
	}
	return res
}
