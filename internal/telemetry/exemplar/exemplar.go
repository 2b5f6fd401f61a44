// Package exemplar links the timeline back to concrete requests: per window
// per (node, tenant) it retains the exact worst-K span trees by end-to-end
// latency plus one deterministically sampled "typical" tree, so any spike in
// a per-window rollup dereferences to full critical-path breakdowns instead
// of a bare P99 number.
//
// Design constraints match the span recorder's and the timeseries
// recorder's:
//
//   - The disabled path is free. A nil *Recorder is a fully functional
//     no-op; the platform's completion path pays one nil check and zero
//     allocations when exemplars are off (BenchmarkDisabledExemplars,
//     TestDisabledExemplarsZeroAlloc).
//   - Deterministic at any fan-out width. Retention decisions depend only
//     on recorded values, never on arrival order: top-K uses a total order
//     (latency desc, then time, container, function), and the typical
//     exemplar keeps the record with the highest size-independent hash
//     priority. Shard recorders merged back in any grouping therefore hold
//     bit-identical cells (TestExemplarMergeOrderInvariant).
//   - Bounded memory. Each (window, node, tenant) cell holds at most K+1
//     trees; windows are bounded by the run horizon.
package exemplar

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// DefaultK is the worst-K retention depth used when Config.K is zero.
const DefaultK = 3

// DefaultWindow is the rollup window used when Config.Window is zero,
// matching timeseries.DefaultWindow so exemplar cells align with timeline
// windows by index.
const DefaultWindow = time.Second

// Config parameterizes a Recorder. The zero value selects all defaults.
type Config struct {
	// Window is the rollup window on the virtual clock (default 1s). Use
	// the same window as the timeline recorder so cells align by index.
	Window time.Duration
	// K is how many worst trees each (window, node, tenant) cell keeps
	// (default 3).
	K int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.K <= 0 {
		c.K = DefaultK
	}
	return c
}

// Key addresses one exemplar cell.
type Key struct {
	// Window is the window index (aligned with the timeline's windows when
	// both use the same Window duration).
	Window int64 `json:"window"`
	// Node and Tenant locate the cell.
	Node   string `json:"node,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// Exemplar is one retained request.
type Exemplar struct {
	// At is the request's completion time.
	At simtime.Time `json:"at"`
	// Latency is the end-to-end latency.
	Latency time.Duration `json:"latency"`
	// Invocation is the full span tree.
	Invocation span.Invocation `json:"invocation"`
}

// Cell is one exported exemplar cell.
type Cell struct {
	Key
	// Count is how many requests completed in the cell.
	Count int64 `json:"count"`
	// Top holds the worst-K exemplars, worst first.
	Top []Exemplar `json:"top"`
	// Typical is the hash-priority sample — an unbiased, order-independent
	// pick among the cell's requests.
	Typical *Exemplar `json:"typical,omitempty"`
}

// entry is the internal exemplar form.
type entry struct {
	at      simtime.Time
	latency time.Duration
	inv     span.Invocation
}

// worse is the retention total order: higher latency first, ties broken by
// completion time, then container and function IDs. Total, so the exact
// worst-K set is independent of recording order.
func worse(a, b entry) bool {
	if a.latency != b.latency {
		return a.latency > b.latency
	}
	if a.at != b.at {
		return a.at < b.at
	}
	if a.inv.Container != b.inv.Container {
		return a.inv.Container < b.inv.Container
	}
	return a.inv.Function < b.inv.Function
}

// sameEntry reports identity under the retention key (the fields worse()
// orders by). Invocation trees hold slices, so entries are not directly
// comparable.
func sameEntry(a, b entry) bool {
	return a.at == b.at && a.latency == b.latency &&
		a.inv.Container == b.inv.Container && a.inv.Function == b.inv.Function
}

// prio is the typical exemplar's sampling priority: an FNV-1a hash over the
// entry's identifying fields. Keeping the max-priority entry per cell is
// equivalent to a uniform reservoir sample but depends only on the entries
// themselves, so merges commute.
func prio(e entry) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix64 := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= prime
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // terminator so ("ab","c") != ("a","bc")
		h *= prime
	}
	mix64(uint64(e.at))
	mix64(uint64(e.latency))
	mixStr(e.inv.Container)
	mixStr(e.inv.Function)
	return h
}

type cell struct {
	count   int64
	top     []entry // sorted worst-first, len <= K
	typical entry
	typPrio uint64
}

// insert folds one entry into the cell under K-deep retention.
func (c *cell) insert(e entry, k int) {
	c.count++
	if p := prio(e); c.count == 1 || p > c.typPrio ||
		(p == c.typPrio && worse(e, c.typical)) {
		c.typical = e
		c.typPrio = p
	}
	// Exact top-K: binary-insert in worst-first order, truncate past K.
	lo, hi := 0, len(c.top)
	for lo < hi {
		mid := (lo + hi) / 2
		if worse(e, c.top[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= k {
		return
	}
	c.top = append(c.top, entry{})
	copy(c.top[lo+1:], c.top[lo:])
	c.top[lo] = e
	if len(c.top) > k {
		c.top = c.top[:k]
	}
}

// Recorder retains tail exemplars. A nil *Recorder is the disabled
// recorder: every method is a zero-allocation no-op. Construct with
// NewRecorder. Safe for concurrent use; retention is order-independent, so
// concurrent shard recording merges to the same state as a serial run.
type Recorder struct {
	mu    sync.Mutex
	cfg   Config
	cells map[Key]*cell
}

// NewRecorder creates a recorder with cfg (zero fields select defaults).
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), cells: make(map[Key]*cell)}
}

// Window returns the rollup window (DefaultWindow on nil).
func (r *Recorder) Window() time.Duration {
	if r == nil {
		return DefaultWindow
	}
	return r.cfg.Window
}

// K returns the worst-K retention depth (DefaultK on nil).
func (r *Recorder) K() int {
	if r == nil {
		return DefaultK
	}
	return r.cfg.K
}

// Config returns the recorder's effective configuration, so a shard
// recorder can be built to merge cleanly into its sink.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}.withDefaults()
	}
	return r.cfg
}

// Record retains one completed request. at is the completion time (which
// buckets the window), latency the end-to-end latency, inv the span tree.
// No-op on nil.
func (r *Recorder) Record(at simtime.Time, node, tenant string, latency time.Duration, inv span.Invocation) {
	if r == nil {
		return
	}
	r.mu.Lock()
	k := Key{Window: int64(at / r.cfg.Window), Node: node, Tenant: tenant}
	c := r.cells[k]
	if c == nil {
		c = &cell{}
		r.cells[k] = c
	}
	c.insert(entry{at: at, latency: latency, inv: inv}, r.cfg.K)
	r.mu.Unlock()
}

// Len reports how many cells hold at least one exemplar.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// MergeFrom folds src's cells into r. Because retention is a pure function
// of the recorded entries, merging shard recorders in any order or grouping
// yields the same cells as recording serially. Merging a nil recorder
// (either side) is a defined no-op; merging a recorder into itself or
// merging mismatched Window/K configurations errors.
func (r *Recorder) MergeFrom(src *Recorder) error {
	if r == nil || src == nil {
		return nil
	}
	if r == src {
		return errors.New("exemplar: cannot merge a recorder into itself")
	}
	if r.cfg != src.cfg {
		return fmt.Errorf("exemplar: cannot merge mismatched configs (%+v into %+v)", src.cfg, r.cfg)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, sc := range src.cells {
		dc := r.cells[k]
		if dc == nil {
			cp := &cell{count: 0}
			r.cells[k] = cp
			dc = cp
		}
		// Replay src's retained entries; counts add beyond what retention
		// kept.
		retained := int64(0)
		for _, e := range sc.top {
			dc.insert(e, r.cfg.K)
			retained++
		}
		// The typical entry may not be in top; replay it too unless it is.
		inTop := false
		for _, e := range sc.top {
			if sameEntry(e, sc.typical) {
				inTop = true
				break
			}
		}
		if sc.count > 0 && !inTop {
			dc.insert(sc.typical, r.cfg.K)
			retained++
		}
		dc.count += sc.count - retained // insert() counted the replayed ones
	}
	return nil
}

// Reset drops every cell, keeping configuration.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cells = make(map[Key]*cell)
	r.mu.Unlock()
}

// Cells exports every cell, sorted by (Window, Node, Tenant) so output is
// deterministic regardless of map iteration order.
func (r *Recorder) Cells() []Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Cell, 0, len(r.cells))
	for k, c := range r.cells {
		cell := Cell{Key: k, Count: c.count, Top: make([]Exemplar, len(c.top))}
		for i, e := range c.top {
			cell.Top[i] = Exemplar{At: e.at, Latency: e.latency, Invocation: e.inv}
		}
		if c.count > 0 {
			cell.Typical = &Exemplar{At: c.typical.at, Latency: c.typical.latency, Invocation: c.typical.inv}
		}
		out = append(out, cell)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Tenant < b.Tenant
	})
	return out
}
