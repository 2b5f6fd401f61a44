// Package sharedmem gives the simulated platform named, refcounted
// shared-state regions that live in the disaggregated pool: a producer
// offloads a region's pages as described ClassShared holdings on the pool's
// memory node (charged to the producer's tenant quota, compressed and
// spilled through the same class-aware tiers as everything else), and any
// number of consumers map the region read-shared, paying link transfer and
// tier surcharge but never duplicating the resident copy. Writing into a
// mapped region breaks the sharing copy-on-write: the dirty pages are
// fetched and re-offloaded as a private copy charged to the writer's
// tenant. This is the substrate under workflow DAG invocations — stage N
// produces its output into a region, stages N+1..k map it instead of
// re-initializing the bytes from scratch.
package sharedmem

import (
	"errors"
	"fmt"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
)

// Typed errors for callers that branch on failure modes.
var (
	// ErrUnknownRegion is returned for operations on a name never created
	// (or already fully freed).
	ErrUnknownRegion = errors.New("sharedmem: unknown region")
	// ErrDuplicateRegion is returned when Create reuses a live name.
	ErrDuplicateRegion = errors.New("sharedmem: region already exists")
	// ErrReleased is returned when a new mapping is requested after the
	// region was released; the bytes are draining, not available.
	ErrReleased = errors.New("sharedmem: region released")
)

// Config parameterizes a Manager.
type Config struct {
	// Pool is the disaggregated pool regions live in. Required.
	Pool *rmem.Pool
}

// Manager owns the namespace of shared regions on one pool.
type Manager struct {
	cfg     Config
	regions map[string]*Region
	stats   Stats
}

// Region is one named shared-state region. All fields are managed by the
// Manager; read them through the accessor methods.
type Region struct {
	name   string
	tenant string // producer tenant: quota owner of the resident copy
	pages  int    // requested size

	resident  int  // pages the pool admitted (≤ pages under quota pressure)
	refs      int  // active mappings
	released  bool // producer released; freed once refs drain to zero
	cowSeq    int
	cowOwners []cowCopy
}

// cowCopy records one private copy-on-write clone charged to a writer.
type cowCopy struct {
	owner  string
	tenant string
	bytes  int64
}

// Stats counts manager activity since construction.
type Stats struct {
	// Created counts successful Create calls; Freed counts regions whose
	// last reference drained after Release.
	Created, Freed int
	// Maps counts successful Map calls; Unmaps the matching releases.
	Maps, Unmaps int
	// CowBreaks counts WriteBreak calls; CowPages the private pages they
	// materialized (charged to the writers' tenants).
	CowBreaks, CowPages int
	// ShortfallPages counts requested-but-rejected pages across Create and
	// WriteBreak (quota or capacity); callers price them as local re-init.
	ShortfallPages int
	// Active is the number of live regions right now.
	Active int
}

// New builds a Manager. Panics without a pool: the package models
// pool-backed state, there is no local-only mode.
func New(cfg Config) *Manager {
	if cfg.Pool == nil {
		panic("sharedmem: nil pool")
	}
	return &Manager{cfg: cfg, regions: make(map[string]*Region)}
}

// pageBytes is the region page granularity.
const pageBytes = pagemem.DefaultPageSize

// Owner returns the synthetic memnode owner key a region's pages live
// under. Exposed so telemetry and tests can find the holdings.
func Owner(name string) string { return "region:" + name }

// Resident returns how many pages the pool admitted at create time.
func (r *Region) Resident() int { return r.resident }

// CreateResult describes how a Create landed.
type CreateResult struct {
	// Done is when the offload transfer completes (pool link FIFO).
	Done simtime.Time
	// Resident is the admitted page count; Shortfall the rejected
	// remainder the producer must keep (and consumers re-derive) locally.
	Resident, Shortfall int
}

// Create offloads a new region's pages into the pool under the producer
// tenant's quota. bytes is rounded up to whole pages. The pool may admit
// fewer pages than requested (tenant quota, capacity): the shortfall is
// reported, not retried — the caller prices re-derivation for the missing
// tail. Fails while the pool is unhealthy.
func (m *Manager) Create(now simtime.Time, name, tenant string, bytes int64) (*Region, CreateResult, error) {
	if r := m.regions[name]; r != nil {
		return nil, CreateResult{}, fmt.Errorf("%w: %s", ErrDuplicateRegion, name)
	}
	if bytes < 0 {
		panic("sharedmem: negative region size")
	}
	pages := int((bytes + pageBytes - 1) / pageBytes)
	r := &Region{name: name, tenant: tenant, pages: pages}
	if pages > 0 {
		var counts rmem.ClassCounts
		counts[memnode.ClassShared] = pages
		acc, _, done, err := m.cfg.Pool.OffloadDescribed(now, Owner(name), tenant, counts)
		if err != nil {
			return nil, CreateResult{}, err
		}
		r.resident = acc[memnode.ClassShared]
		m.regions[name] = r
		m.stats.Created++
		m.stats.Active++
		m.stats.ShortfallPages += pages - r.resident
		return r, CreateResult{Done: done, Resident: r.resident, Shortfall: pages - r.resident}, nil
	}
	m.regions[name] = r
	m.stats.Created++
	m.stats.Active++
	return r, CreateResult{Done: now}, nil
}

// Map establishes a read-shared mapping: the consumer pays one pipelined
// transfer of the resident pages (plus tier surcharge for any compressed or
// spilled fraction) and holds a reference until Unmap. The resident copy is
// not duplicated. Fails while the pool is unhealthy — the caller replays
// the producer or re-derives locally.
func (m *Manager) Map(now simtime.Time, name string) (rmem.FaultStall, error) {
	r := m.regions[name]
	if r == nil {
		return rmem.FaultStall{}, fmt.Errorf("%w: %s", ErrUnknownRegion, name)
	}
	if r.released {
		return rmem.FaultStall{}, fmt.Errorf("%w: %s", ErrReleased, name)
	}
	stall, err := m.cfg.Pool.ShareRead(now, Owner(name), r.tenant, r.resident)
	if err != nil {
		return rmem.FaultStall{}, err
	}
	r.refs++
	m.stats.Maps++
	return stall, nil
}

// Unmap drops one mapping reference. The region's bytes are freed when the
// producer has released it and the last reference drains. Panics on
// refcount underflow — that is a scheduling bug, not an input error.
func (m *Manager) Unmap(now simtime.Time, name string) error {
	r := m.regions[name]
	if r == nil {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, name)
	}
	if r.refs <= 0 {
		panic("sharedmem: unmap without mapping: " + name)
	}
	r.refs--
	m.stats.Unmaps++
	if r.released && r.refs == 0 {
		m.free(now, r)
	}
	return nil
}

// BreakResult describes a copy-on-write unshare.
type BreakResult struct {
	// Stall is the writer's critical-path cost: fetching the shared copy
	// of the dirty pages plus committing the private copy.
	Stall rmem.FaultStall
	// Private is how many private pages materialized under the writer's
	// tenant quota; Shortfall the pages the pool refused (kept local).
	Private, Shortfall int
}

// WriteBreak models a mapped consumer writing into the region: sharing
// breaks copy-on-write for the dirty pages. The writer fetches the shared
// copy (a ShareRead of the dirty subset) and materializes a private copy as
// a fresh ClassShared holding charged to the writer's tenant — the region's
// resident copy and the other consumers' mappings are untouched. The
// private copy lives until the writer's mapping unmaps and the region
// frees. Fails while the pool is unhealthy.
func (m *Manager) WriteBreak(now simtime.Time, name, writer string, dirtyBytes int64) (BreakResult, error) {
	r := m.regions[name]
	if r == nil {
		return BreakResult{}, fmt.Errorf("%w: %s", ErrUnknownRegion, name)
	}
	if r.refs <= 0 {
		panic("sharedmem: write break without mapping: " + name)
	}
	if dirtyBytes < 0 {
		panic("sharedmem: negative dirty bytes")
	}
	dirty := int((dirtyBytes + pageBytes - 1) / pageBytes)
	if dirty > r.resident {
		dirty = r.resident
	}
	if dirty == 0 {
		return BreakResult{}, nil
	}
	stall, err := m.cfg.Pool.ShareRead(now, Owner(name), r.tenant, dirty)
	if err != nil {
		return BreakResult{}, err
	}
	r.cowSeq++
	cow := cowCopy{owner: fmt.Sprintf("cow:%s#%d:%s", name, r.cowSeq, writer), tenant: writer}
	var counts rmem.ClassCounts
	counts[memnode.ClassShared] = dirty
	acc, _, done, err := m.cfg.Pool.OffloadDescribed(now, cow.owner, writer, counts)
	if err != nil {
		return BreakResult{}, err
	}
	private := acc[memnode.ClassShared]
	cow.bytes = int64(private) * pageBytes
	if private > 0 {
		r.cowOwners = append(r.cowOwners, cow)
	}
	if done > now {
		stall.Total += done - now
	}
	m.stats.CowBreaks++
	m.stats.CowPages += private
	m.stats.ShortfallPages += dirty - private
	return BreakResult{Stall: stall, Private: private, Shortfall: dirty - private}, nil
}

// Release marks the region dead from the producer's side. The bytes drain
// immediately when no mapping is live, otherwise when the last Unmap
// lands. Releasing twice is a no-op.
func (m *Manager) Release(now simtime.Time, name string) error {
	r := m.regions[name]
	if r == nil {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, name)
	}
	if r.released {
		return nil
	}
	r.released = true
	if r.refs == 0 {
		m.free(now, r)
	}
	return nil
}

// free drops the region's resident copy and every private CoW clone, then
// forgets the name.
func (m *Manager) free(now simtime.Time, r *Region) {
	m.cfg.Pool.DiscardOwner(now, Owner(r.name), r.tenant, int64(r.resident)*pageBytes)
	for _, cow := range r.cowOwners {
		m.cfg.Pool.DiscardOwner(now, cow.owner, cow.tenant, cow.bytes)
	}
	delete(m.regions, r.name)
	m.stats.Freed++
	m.stats.Active--
}

// Region returns the live region for name, or nil.
func (m *Manager) Region(name string) *Region { return m.regions[name] }

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// CheckInvariants cross-checks the manager's books: refcounts are
// non-negative, Active matches the live map, and fully-drained regions are
// forgotten. Returns the first violation.
func (m *Manager) CheckInvariants() error {
	if m.stats.Active != len(m.regions) {
		return fmt.Errorf("sharedmem: active %d != live regions %d", m.stats.Active, len(m.regions))
	}
	for name, r := range m.regions {
		if r.refs < 0 {
			return fmt.Errorf("sharedmem: region %s negative refcount %d", name, r.refs)
		}
		if r.released && r.refs == 0 {
			return fmt.Errorf("sharedmem: region %s released and drained but not freed", name)
		}
		if r.resident > r.pages {
			return fmt.Errorf("sharedmem: region %s resident %d > requested %d", name, r.resident, r.pages)
		}
	}
	if m.stats.Maps < m.stats.Unmaps {
		return fmt.Errorf("sharedmem: unmaps %d exceed maps %d", m.stats.Unmaps, m.stats.Maps)
	}
	return nil
}

// Drained reports whether every region has been freed (end-of-run check:
// region refcounts reached zero and the namespace is empty).
func (m *Manager) Drained() bool { return len(m.regions) == 0 }
