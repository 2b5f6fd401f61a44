package memnode

// Merge domains and the shared cache tier.
//
// The base node dedups described pages per (function, class): every
// container of one function shares one master per shared class. Merge
// domains widen that scope the way "User-guided Page Merging for Memory
// Deduplication in Serverless Systems" merges identical pages across
// functions: at MergeTenant scope all of one tenant's functions share one
// runtime master, and at MergeCrossTenant scope every *opted-in* tenant
// shares a single rack-wide runtime master. Init pages keep per-function
// domains at every scope — they carry function-specific initialization
// state, so only runtime/library pages are content-identical across
// functions.
//
// Two safety properties hold by construction and are re-verified by
// CheckInvariants after every mutation:
//
//   - Isolation: a master never becomes reachable across a tenant edge
//     unless both tenants opted in (checkIsolation).
//   - CoW on write: a writer leaves the master untouched — WriteBreak moves
//     its dirtied pages into a private copy charged to the writing tenant,
//     so no break can mutate another owner's logical bytes.
//
// On top of the merge domains sits a shared multi-tenant cache tier
// ("Caching Aided Multi-Tenant Serverless Computing"): a dedicated DRAM
// partition holding hot copies of merge masters. A recall of a cached
// master skips the compressed/spill tier surcharge. Eviction is
// fairness-aware: each tenant's occupancy is bounded by its weighted share
// of the cache over the currently active occupants, so one hot tenant
// cannot monopolize the tier (the per-tenant analogue of the logical-byte
// quotas).

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// MergeScope selects how wide runtime-page merge domains stretch.
type MergeScope string

const (
	// MergeFunction is the default: dedup only across containers of one
	// function (the behavior of the density studies).
	MergeFunction MergeScope = "function"
	// MergeTenant merges identical runtime pages across all functions of
	// one tenant.
	MergeTenant MergeScope = "tenant"
	// MergeCrossTenant merges runtime pages across every tenant that opted
	// in (Config.MergeOptIn); tenants that did not opt in keep tenant-wide
	// domains.
	MergeCrossTenant MergeScope = "cross-tenant"
)

// MergeScopes lists the valid scopes in widening order.
func MergeScopes() []MergeScope {
	return []MergeScope{MergeFunction, MergeTenant, MergeCrossTenant}
}

// ParseMergeScope validates a scope string; "" means MergeFunction.
func ParseMergeScope(s string) (MergeScope, error) {
	switch MergeScope(s) {
	case "", MergeFunction:
		return MergeFunction, nil
	case MergeTenant:
		return MergeTenant, nil
	case MergeCrossTenant:
		return MergeCrossTenant, nil
	}
	return "", fmt.Errorf("memnode: unknown merge scope %q (options: function, tenant, cross-tenant)", s)
}

// Widened merge-domain keys start with NUL, which cannot appear in function
// IDs, so they can never collide with a per-function domain.
const (
	tenantDomPrefix = "\x00tenant\x00"
	globalDom       = "\x00cross-tenant"
)

// domainOf returns the merge domain a shared-class batch of fn lands in.
// The memoized result keeps the widened-scope hot path allocation-free.
func (n *Node) domainOf(fn string, class Class) string {
	if class != ClassRuntime || n.cfg.MergeScope == MergeFunction {
		return fn
	}
	if d, ok := n.domCache[fn]; ok {
		return d
	}
	t := n.tenantOf(fn)
	d := tenantDomPrefix + t
	if n.cfg.MergeScope == MergeCrossTenant && n.optIn[t] {
		d = globalDom
	}
	n.domCache[fn] = d
	return d
}

// BreakResult prices a copy-on-write unmerge.
type BreakResult struct {
	// Pages privatized: moved out of the shared master into a per-owner
	// private copy. The owner's logical holdings are unchanged — the pages
	// moved, they did not leave the node.
	Pages int
	// Recalled pages could not be re-homed privately (node full); they are
	// released back to the caller, which must fold them into local memory.
	Recalled int
	// Latency is the tier surcharge for reading the master fraction that
	// backed the dirtied pages.
	Latency time.Duration
}

// WriteBreak is the copy-on-write unmerge: the owner dirtied pages it holds
// against a shared master, so those pages detach into a private per-owner
// copy charged to the writing tenant, leaving the master — and every other
// owner's logical bytes — untouched. Reading the master fraction that backed
// the dirtied pages pays the usual tier surcharge (through the shared cache,
// which can waive it). When DRAM and spill cannot home the private copy the
// remainder is recalled: released from the node and returned to the caller's
// local memory. Writes against private holdings (dedup off, or a non-shared
// class) are free — there is nothing to unmerge.
func (n *Node) WriteBreak(owner, fn string, class Class, pages int) BreakResult {
	if pages <= 0 {
		return BreakResult{}
	}
	key := n.key(owner, fn, class)
	e := n.entries[key]
	if e == nil || !e.shared {
		return BreakResult{}
	}
	cur := e.refs[owner]
	if pages > cur {
		pages = cur
	}
	if pages == 0 {
		return BreakResult{}
	}

	lat := n.tierSurcharge(e, pages, n.tenantOf(fn))

	// Detach the dirtied pages from the master. This may shrink or free the
	// master (the writer could have been its longest or only reference);
	// other owners' holdings are untouched either way.
	n.release(e, owner, pages)

	// Re-home them as a private copy under the writer, fitting through the
	// same compress-then-spill path as a fresh offload.
	pk := entryKey{dom: fn, owner: owner, class: class}
	pe := n.entries[pk]
	created := pe == nil
	if created {
		pe = &entry{key: pk}
		n.entries[pk] = pe
		n.lruPush(pe)
	}
	hotFit := n.makeRoom(pages)
	spillFit := 0
	if hotFit < pages {
		spillFit = pages - hotFit
		if n.cfg.SpillBytes > 0 {
			ps := int64(pagemem.DefaultPageSize)
			if free := int((n.cfg.SpillBytes - n.SpillUsedBytes()) / ps); free < spillFit {
				spillFit = free
			}
			if spillFit < 0 {
				spillFit = 0
			}
		}
	}
	private := hotFit + spillFit
	recalled := pages - private
	pe.hot += hotFit
	n.hotPages += int64(hotFit)
	pe.spill += spillFit
	n.spillPages += int64(spillFit)
	n.spilledPages += int64(spillFit)
	pe.pages += private
	if pe.pages == 0 {
		if created {
			n.freeEntry(pe)
		}
	} else {
		n.lruTouch(pe)
	}
	if recalled > 0 {
		n.logicalPages -= int64(recalled)
		n.tenants[n.tenantOf(fn)] -= int64(recalled) * pagemem.DefaultPageSize
		n.unmergeRecall += int64(recalled)
	}
	n.registerOwner(owner, fn, pk, -int64(recalled))

	n.unmergeBreaks++
	n.unmergedPages += int64(private)
	if rb := n.ResidentBytes(); rb > n.peakResidentBytes {
		n.peakResidentBytes = rb
	}
	return BreakResult{Pages: private, Recalled: recalled, Latency: lat}
}

// --- shared multi-tenant cache tier ---

// cacheEntry is one cached master: a hot copy of a shared entry's resident
// pages, charged to the tenant that admitted it, on that tenant's LRU list.
type cacheEntry struct {
	key        entryKey
	tenant     string
	pages      int
	prev, next *cacheEntry // per-tenant recency list; head is coldest
}

// sharedCache is the cache tier's state. All mutation goes through the
// Node's cache* methods so occupancy, lists, and the fairness invariant stay
// in lockstep.
type sharedCache struct {
	bytes     int64
	usedBytes int64
	entries   map[entryKey]*cacheEntry
	head      map[string]*cacheEntry
	tail      map[string]*cacheEntry
	occ       map[string]int64 // tenant → cached bytes; deleted at zero
}

func newSharedCache(bytes int64) *sharedCache {
	return &sharedCache{
		bytes:   bytes,
		entries: make(map[entryKey]*cacheEntry),
		head:    make(map[string]*cacheEntry),
		tail:    make(map[string]*cacheEntry),
		occ:     make(map[string]int64),
	}
}

// activeTenants lists tenants with cache occupancy, sorted for determinism.
func (c *sharedCache) activeTenants() []string {
	out := make([]string, 0, len(c.occ))
	for t := range c.occ {
		out = append(out, t)
	}
	insertionSort(out)
	return out
}

// insertionSort avoids sort.Strings' interface boxing on the tiny active-set
// slices the rebalance loop sorts.
func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// cacheShareOf is t's byte share of the cache: CacheBytes split evenly over
// the tenants currently occupying it, t included, floor-divided so shares
// never sum past capacity.
func (n *Node) cacheShareOf(t string) int64 {
	c := n.cache
	occupants := len(c.occ)
	if _, ok := c.occ[t]; !ok {
		occupants++
	}
	return c.bytes / int64(occupants)
}

// cacheHas reports whether e's master is cached, touching it MRU on a hit.
func (n *Node) cacheHas(e *entry) bool {
	if n.cache == nil || !e.shared {
		return false
	}
	ce := n.cache.entries[e.key]
	if ce == nil {
		return false
	}
	n.cacheTouch(ce)
	return true
}

// cacheTouch moves ce to the MRU end of its tenant's list.
func (n *Node) cacheTouch(ce *cacheEntry) {
	c := n.cache
	if c.tail[ce.tenant] == ce {
		return
	}
	n.cacheUnlink(ce)
	n.cacheLink(ce)
}

func (n *Node) cacheLink(ce *cacheEntry) {
	c := n.cache
	ce.prev = c.tail[ce.tenant]
	ce.next = nil
	if ce.prev != nil {
		ce.prev.next = ce
	} else {
		c.head[ce.tenant] = ce
	}
	c.tail[ce.tenant] = ce
}

func (n *Node) cacheUnlink(ce *cacheEntry) {
	c := n.cache
	if ce.prev != nil {
		ce.prev.next = ce.next
	} else {
		c.head[ce.tenant] = ce.next
	}
	if ce.next != nil {
		ce.next.prev = ce.prev
	} else {
		c.tail[ce.tenant] = ce.prev
	}
	ce.prev, ce.next = nil, nil
}

// cacheInsert admits e's master into the cache charged to tenant, then
// rebalances. Masters larger than the whole cache are not admitted.
func (n *Node) cacheInsert(e *entry, tenant string) {
	c := n.cache
	if c == nil || !e.shared {
		return
	}
	pages := e.residentTarget()
	bytes := int64(pages) * pagemem.DefaultPageSize
	if pages <= 0 || bytes > c.bytes {
		return
	}
	if c.entries[e.key] != nil {
		return
	}
	ce := &cacheEntry{key: e.key, tenant: tenant, pages: pages}
	c.entries[e.key] = ce
	c.occ[tenant] += bytes
	c.usedBytes += bytes
	n.cacheLink(ce)
	n.cacheRebalance()
}

// cacheResync tracks a live master's resident size: grows or shrinks the
// cached copy in place (rebalancing after growth). No-op when uncached.
func (n *Node) cacheResync(e *entry) {
	c := n.cache
	if c == nil {
		return
	}
	ce := c.entries[e.key]
	if ce == nil {
		return
	}
	pages := e.residentTarget()
	if pages == ce.pages {
		return
	}
	if pages <= 0 {
		n.cacheRemove(ce)
		return
	}
	d := int64(pages-ce.pages) * pagemem.DefaultPageSize
	ce.pages = pages
	c.occ[ce.tenant] += d
	c.usedBytes += d
	if c.occ[ce.tenant] <= 0 {
		delete(c.occ, ce.tenant)
	}
	if d > 0 {
		n.cacheRebalance()
	}
}

// cacheDrop evicts the cached copy keyed by key, if any (master freed).
func (n *Node) cacheDrop(key entryKey) {
	if n.cache == nil {
		return
	}
	if ce := n.cache.entries[key]; ce != nil {
		n.cacheRemove(ce)
	}
}

// cacheRemove detaches ce from every cache structure.
func (n *Node) cacheRemove(ce *cacheEntry) {
	c := n.cache
	n.cacheUnlink(ce)
	bytes := int64(ce.pages) * pagemem.DefaultPageSize
	c.occ[ce.tenant] -= bytes
	if c.occ[ce.tenant] <= 0 {
		delete(c.occ, ce.tenant)
	}
	c.usedBytes -= bytes
	delete(c.entries, ce.key)
}

// CacheOccupancies lists each tenant's shared-cache occupancy in bytes,
// sorted by tenant (nil when the cache is disabled) — the timeline sampler's
// fairness feed.
func (n *Node) CacheOccupancies() []TenantUsage {
	if n.cache == nil {
		return nil
	}
	out := make([]TenantUsage, 0, len(n.cache.occ))
	for _, t := range n.cache.activeTenants() {
		out = append(out, TenantUsage{Tenant: t, LogicalBytes: n.cache.occ[t]})
	}
	return out
}

// cacheRebalance enforces the fairness invariant: while any tenant occupies
// more than its share of the active set, evict that tenant's coldest entry
// (the most-over-share tenant first; ties break on the smaller name). Each
// iteration evicts one entry, so the loop terminates; shares are recomputed
// per iteration because evicting a tenant's last entry widens everyone
// else's share.
func (n *Node) cacheRebalance() {
	c := n.cache
	for {
		victim := ""
		var worst int64
		for _, t := range c.activeTenants() {
			if over := c.occ[t] - n.cacheShareOf(t); over > worst {
				worst, victim = over, t
			}
		}
		if victim == "" {
			return
		}
		ce := c.head[victim]
		if ce == nil {
			return
		}
		n.cacheRemove(ce)
		n.cacheEvictions++
	}
}
