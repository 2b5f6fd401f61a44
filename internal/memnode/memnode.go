// Package memnode models the pool side of the disaggregated-memory rack
// (§9 of the paper): a memory node that receives offloaded pages *described*
// by their provenance (function, container, lifecycle class) rather than as
// anonymous bytes, and manages them for density.
//
// Three mechanisms multiply the node's effective capacity:
//
//   - Content-class dedup: FaaSMem offloads mostly init-epoch (and runtime)
//     pages, which are near-identical across containers of the same function
//     ("User-guided Page Merging for Memory Deduplication in Serverless
//     Systems"). The node keeps one resident copy per (function, class) with
//     a refcount; each additional container's offload of the same prefix
//     shares it.
//   - A zswap-style compression tier: under DRAM pressure cold entries are
//     compressed in place at a configurable ratio; recalls of compressed
//     pages pay a decompression latency ("Squeezy: Rapid VM Memory
//     Reclamation for Serverless Functions").
//   - A spill tier with LRU-by-class eviction: when compressed DRAM still
//     does not fit, the least recently used entries of the least valuable
//     class (exec first, shared init last) are demoted to a slower backing
//     store. Demotion never drops pages — every offloaded page stays
//     recallable, it just gets slower — so the compute-side Remote state
//     never diverges from the pool.
//
// Per-tenant quotas bound any one tenant's logical footprint; over-quota
// offloads are truncated and counted.
//
// The node is pure bookkeeping on virtual time: it returns latencies for the
// caller (rmem.Pool) to fold into fault stalls, and never blocks. It holds
// no telemetry: the pool reads Stats after each node call and reports the
// change as metrics and tier flows from that one place. All state
// is deterministic — eviction scans walk insertion/recency-ordered lists,
// never Go map iteration order.
package memnode

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
)

// Class is the lifecycle class of a described page batch. The numbering
// matches telemetry.Stage so offload instrumentation can convert for free.
type Class uint8

const (
	// ClassOther is a page outside any tracked segment.
	ClassOther Class = iota
	// ClassRuntime is a runtime-segment page (Runtime Pucket).
	ClassRuntime
	// ClassInit is an init-segment page (Init Pucket).
	ClassInit
	// ClassExec is an exec-segment temporary.
	ClassExec
	// ClassShared is a page of a named shared-state region: intermediate
	// state a workflow stage produced into the pool for downstream stages to
	// map read-shared (internal/sharedmem). Region entries are keyed by the
	// region's synthetic owner, not dedup-merged — two regions with the same
	// tenant hold distinct content.
	ClassShared
	// NumClasses sizes per-class arrays.
	NumClasses = 5
)

func (c Class) String() string {
	switch c {
	case ClassRuntime:
		return "runtime"
	case ClassInit:
		return "init"
	case ClassExec:
		return "exec"
	case ClassShared:
		return "shared"
	default:
		return "other"
	}
}

// Shared reports whether the class dedups across containers of one function.
// Runtime and init pages are materialized from the same image/initialization
// and are near-identical between containers; exec temporaries are per-request
// private data. ClassShared regions share by *mapping* (many readers of one
// owner's entry), not by content dedup, so they key privately here.
func (c Class) Shared() bool { return c == ClassRuntime || c == ClassInit }

// victimOrder is the eviction class priority, most evictable first: private
// exec/other pages go first, then shared-state regions (their consumers pay a
// tier surcharge on the next map, never lose data), then the runtime copy,
// and the init copy — the highest-fan-in dedup target — is evicted last.
var victimOrder = [NumClasses]Class{ClassExec, ClassOther, ClassShared, ClassRuntime, ClassInit}

// Config describes a memory node. The zero value gets workable defaults.
type Config struct {
	// DRAMBytes is the node's DRAM, holding the hot and compressed tiers.
	// Default 16 GiB.
	DRAMBytes int64 `json:"dram_bytes,omitempty"`
	// SpillBytes bounds the spill tier. Zero means unbounded (the node can
	// always demote, so it never rejects for capacity).
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// DisableDedup stores every described batch privately (the baseline the
	// density experiments compare against).
	DisableDedup bool `json:"disable_dedup,omitempty"`
	// DisableCompression turns the compression tier off.
	DisableCompression bool `json:"disable_compression,omitempty"`
	// CompressRatio is the zswap-style compression ratio (stored bytes =
	// raw/ratio). Default 3.0 — typical for zeroed/initialized pages.
	CompressRatio float64 `json:"compress_ratio,omitempty"`
	// TenantQuotaBytes caps any one tenant's logical bytes on the node.
	// Zero disables quotas.
	TenantQuotaBytes int64 `json:"tenant_quota_bytes,omitempty"`
	// TenantOf maps a function ID to its tenant for quota accounting.
	// Default: every function is its own tenant.
	TenantOf func(fn string) string `json:"-"`
	// MergeScope widens runtime-page merge domains beyond a single function:
	// MergeTenant collapses content-identical runtime pages across one
	// tenant's functions, MergeCrossTenant across every tenant that opted in
	// via MergeOptIn. Init pages always merge per-function — they carry
	// function-specific initialization state. Default (and ""):
	// MergeFunction, the per-function dedup of the density studies. Unknown
	// values behave as MergeFunction.
	MergeScope MergeScope `json:"merge_scope,omitempty"`
	// MergeOptIn lists tenants that consented to cross-tenant merging. Only
	// meaningful at MergeCrossTenant scope; a tenant absent from the list
	// keeps a tenant-wide domain, so its pages never share a master with
	// another tenant's. This is the hard security boundary: merging crosses a
	// tenant edge only between two opted-in tenants.
	MergeOptIn []string `json:"merge_opt_in,omitempty"`
	// CacheBytes sizes the shared multi-tenant cache tier for hot copies of
	// merge masters: a recall or read of a cached master skips the
	// compressed/spill tier surcharge. Zero (default) disables the cache.
	// The cache is a dedicated DRAM partition, accounted separately from
	// DRAMBytes. Every tenant occupying it gets an equal share.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

// The node's per-page tier costs.
const (
	// compressLatency is the pool-side CPU cost of compressing one page. It
	// is off the request critical path (compression runs on the node) but
	// accumulated in Stats for capacity planning.
	compressLatency = time.Microsecond
	// decompressLatency is added to a recall for each page served from the
	// compressed tier.
	decompressLatency = 3 * time.Microsecond
	// spillLatency is added to a recall for each page served from the spill
	// tier (an NVMe-class read).
	spillLatency = 80 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.DRAMBytes <= 0 {
		c.DRAMBytes = 16 << 30
	}
	if c.CompressRatio <= 1 {
		c.CompressRatio = 3.0
	}
	switch c.MergeScope {
	case MergeTenant, MergeCrossTenant:
	default:
		c.MergeScope = MergeFunction
	}
	return c
}

// entryKey identifies a page-store entry: shared entries (dedupable classes)
// key on their merge domain — the function itself at MergeFunction scope, a
// tenant- or rack-wide domain at wider scopes — and private entries on the
// owning container.
type entryKey struct {
	dom   string
	owner string // "" for shared entries
	class Class
}

// entry is one resident copy in the page store: the pages of one class of
// one function (shared) or one container (private), tracked per tier.
type entry struct {
	key    entryKey
	shared bool

	// refs maps owner container → logical pages it holds against this entry
	// (shared entries only). The resident copy is the longest offloaded
	// prefix: maxPages = max over refs, atMax = owners currently at it.
	refs     map[string]int
	maxPages int
	atMax    int
	// pages is the private-entry page count.
	pages int

	// Resident pages by tier; hot+comp+spill always equals the resident
	// target (maxPages or pages).
	hot, comp, spill int

	// Recency list links (per-class LRU; head is coldest).
	prev, next *entry
}

func (e *entry) residentTarget() int {
	if e.shared {
		return e.maxPages
	}
	return e.pages
}

// ownerRefs indexes one container's holdings for O(its entries) discard.
// An owner describes pages of exactly one function (containers run one
// function; region owners are synthetic and keyed per region), recorded here
// so discards and isolation checks can recover the tenant even when the
// entry key is a widened merge domain.
type ownerRefs struct {
	fn    string
	keys  []entryKey // insertion order, for deterministic iteration
	seen  map[entryKey]bool
	pages int64 // logical pages this owner holds
}

// RecallCost is what recalling pages from the node costs the caller.
type RecallCost struct {
	// Pages actually released (clamped to the owner's holdings).
	Pages int
	// Latency is the tier surcharge: decompression and spill reads for the
	// fraction of the resident copy living in those tiers.
	Latency time.Duration
}

// Stats is a point-in-time snapshot of the node.
type Stats struct {
	LogicalBytes       int64 `json:"logical_bytes"`
	ResidentBytes      int64 `json:"resident_bytes"`
	DRAMUsedBytes      int64 `json:"dram_used_bytes"`
	SpillUsedBytes     int64 `json:"spill_used_bytes"`
	DedupSavedBytes    int64 `json:"dedup_saved_bytes"`
	CompressSavedBytes int64 `json:"compress_saved_bytes"`

	PeakLogicalBytes  int64 `json:"peak_logical_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`

	Entries int `json:"entries"`
	Owners  int `json:"owners"`

	DedupHitPages    int64 `json:"dedup_hit_pages"`
	CompressedPages  int64 `json:"compressed_pages"`
	SpilledPages     int64 `json:"spilled_pages"`
	Evictions        int64 `json:"evictions"`
	QuotaRejectPages int64 `json:"quota_reject_pages"`
	FullRejectPages  int64 `json:"full_reject_pages"`

	// Merge-domain activity: pages admitted onto a master wider than their
	// own function (a subset of DedupHitPages), and CoW unmerges — break
	// events, pages privatized, and pages recalled to the writer because the
	// private copy did not fit.
	MergedPages        int64 `json:"merged_pages,omitempty"`
	UnmergeBreaks      int64 `json:"unmerge_breaks,omitempty"`
	UnmergedPages      int64 `json:"unmerged_pages,omitempty"`
	UnmergeRecallPages int64 `json:"unmerge_recall_pages,omitempty"`

	// Shared cache tier activity (zero when CacheBytes is 0).
	CacheHitPages  int64 `json:"cache_hit_pages,omitempty"`
	CacheMissPages int64 `json:"cache_miss_pages,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	CacheUsedBytes int64 `json:"cache_used_bytes,omitempty"`

	// Pool-side CPU time spent (de)compressing — off the request critical
	// path for compression, on it for decompression.
	CompressTime   time.Duration `json:"compress_time"`
	DecompressTime time.Duration `json:"decompress_time"`
}

// Node is a simulated pool-side memory node. Not safe for concurrent use;
// the DES engine is single-threaded by design.
type Node struct {
	cfg Config

	entries map[entryKey]*entry
	owners  map[string]*ownerRefs
	tenants map[string]int64 // tenant → logical bytes
	// Per-class recency lists: head is LRU, tail is MRU.
	lruHead, lruTail [NumClasses]*entry

	logicalPages    int64
	hotPages        int64
	compPages       int64
	spillPages      int64
	compStoredBytes int64 // DRAM actually used by the compressed tier

	peakLogicalBytes  int64
	peakResidentBytes int64

	dedupHitPages    int64
	compressedPages  int64
	spilledPages     int64
	evictions        int64
	quotaRejectPages int64
	fullRejectPages  int64
	compressTime     time.Duration
	decompressTime   time.Duration

	// Merge-domain state: opted-in tenants (cross-tenant scope), a fn →
	// domain memo keeping the widened key computation allocation-free, and
	// the merge/unmerge counters.
	optIn         map[string]bool
	domCache      map[string]string
	mergedPages   int64
	unmergeBreaks int64
	unmergedPages int64
	unmergeRecall int64

	// Shared cache tier (nil when CacheBytes is 0).
	cache          *sharedCache
	cacheHitPages  int64
	cacheMissPages int64
	cacheEvictions int64

	// forceFull makes the node report zero admissible headroom and reject
	// offload batches outright — the tier-full storm injected by a fault
	// plan. Recalls and discards still work.
	forceFull bool
}

// New creates a node from cfg, applying defaults for zero fields.
func New(cfg Config) *Node {
	n := &Node{
		cfg:     cfg.withDefaults(),
		entries: make(map[entryKey]*entry),
		owners:  make(map[string]*ownerRefs),
		tenants: make(map[string]int64),
	}
	if n.cfg.MergeScope != MergeFunction {
		n.domCache = make(map[string]string)
		n.optIn = make(map[string]bool, len(n.cfg.MergeOptIn))
		for _, t := range n.cfg.MergeOptIn {
			n.optIn[t] = true
		}
	}
	if n.cfg.CacheBytes > 0 {
		n.cache = newSharedCache(n.cfg.CacheBytes)
	}
	return n
}

// Config returns the effective configuration.
func (n *Node) Config() Config { return n.cfg }

func (n *Node) tenantOf(fn string) string {
	if n.cfg.TenantOf != nil {
		return n.cfg.TenantOf(fn)
	}
	return fn
}

// compStored returns the DRAM the compression tier needs for pages.
func (n *Node) compStored(pages int) int64 {
	if pages <= 0 {
		return 0
	}
	return int64(float64(pages) * pagemem.DefaultPageSize / n.cfg.CompressRatio)
}

// LogicalBytes is the sum of every owner's offloads — what the compute side
// believes is stored remotely.
func (n *Node) LogicalBytes() int64 { return n.logicalPages * pagemem.DefaultPageSize }

// DRAMUsedBytes is hot-tier raw bytes plus compressed-tier stored bytes.
func (n *Node) DRAMUsedBytes() int64 {
	return n.hotPages*pagemem.DefaultPageSize + n.compStoredBytes
}

// SpillUsedBytes is the spill tier's stored bytes.
func (n *Node) SpillUsedBytes() int64 { return n.spillPages * pagemem.DefaultPageSize }

// ResidentBytes is what the node actually stores: DRAM plus spill.
func (n *Node) ResidentBytes() int64 { return n.DRAMUsedBytes() + n.SpillUsedBytes() }

// DedupSavedBytes is the logical-minus-resident page savings from sharing.
func (n *Node) DedupSavedBytes() int64 {
	return (n.logicalPages - n.hotPages - n.compPages - n.spillPages) * pagemem.DefaultPageSize
}

// CompressSavedBytes is the DRAM saved by storing comp-tier pages compressed.
func (n *Node) CompressSavedBytes() int64 {
	return n.compPages*pagemem.DefaultPageSize - n.compStoredBytes
}

// CacheUsedBytes is the shared cache tier's occupancy (0 when disabled).
func (n *Node) CacheUsedBytes() int64 {
	if n.cache == nil {
		return 0
	}
	return n.cache.usedBytes
}

// AcceptableBytes is the effective headroom an offloader may assume: free
// DRAM, plus what compressing the current hot tier would reclaim, plus free
// spill. With an unbounded spill tier the node never rejects for capacity.
func (n *Node) AcceptableBytes() int64 {
	if n.forceFull {
		return 0
	}
	if n.cfg.SpillBytes <= 0 {
		return math.MaxInt64 / 4
	}
	free := n.cfg.DRAMBytes - n.DRAMUsedBytes()
	if !n.cfg.DisableCompression {
		free += n.hotPages*pagemem.DefaultPageSize - n.compStored(int(n.hotPages))
	}
	free += n.cfg.SpillBytes - n.SpillUsedBytes()
	if free < 0 {
		return 0
	}
	return free
}

// SetForceFull toggles the injected tier-full storm state: while set, the
// node reports zero admissible headroom and rejects every offload batch
// (counted as full rejects). Recalls and discards are unaffected.
func (n *Node) SetForceFull(v bool) { n.forceFull = v }

// key returns the store key a described batch lands under.
func (n *Node) key(owner, fn string, class Class) entryKey {
	if class.Shared() && !n.cfg.DisableDedup {
		return entryKey{dom: n.domainOf(fn, class), class: class}
	}
	return entryKey{dom: fn, owner: owner, class: class}
}

// Offload admits a described batch of pages and returns how many were
// accepted. Rejections (tenant quota, node full) truncate the batch; the
// caller keeps rejected pages local.
func (n *Node) Offload(owner, fn string, class Class, pages int) int {
	if pages <= 0 {
		return 0
	}
	if n.forceFull {
		n.fullRejectPages += int64(pages)
		return 0
	}
	ps := int64(pagemem.DefaultPageSize)
	accepted := pages

	if n.cfg.TenantQuotaBytes > 0 {
		tenant := n.tenantOf(fn)
		freePages := int((n.cfg.TenantQuotaBytes - n.tenants[tenant]) / ps)
		if freePages < 0 {
			freePages = 0
		}
		if accepted > freePages {
			n.quotaRejectPages += int64(accepted - freePages)
			accepted = freePages
		}
		if accepted == 0 {
			return 0
		}
	}

	key := n.key(owner, fn, class)
	e := n.entries[key]
	created := e == nil
	if created {
		e = &entry{key: key, shared: key.owner == ""}
		if e.shared {
			e.refs = make(map[string]int)
		}
		n.entries[key] = e
		n.lruPush(e)
	}

	cur := e.pages
	if e.shared {
		cur = e.refs[owner]
	}

	// Growth is the part of the batch that needs a new resident copy; for
	// shared entries the prefix up to the current longest offload dedups.
	growth := accepted
	if e.shared {
		growth = cur + accepted - e.maxPages
		if growth < 0 {
			growth = 0
		}
		hits := int64(accepted - growth)
		n.dedupHitPages += hits
		if hits > 0 && key.dom != fn {
			// The master is a widened merge domain: these pages merged
			// across owners beyond this function's own dedup.
			n.mergedPages += hits
		}
	}

	// Fit the growth: evict for hot-tier room first; what still does not fit
	// in DRAM is admitted straight into the spill tier; the rest is rejected.
	hotFit, spillFit := growth, 0
	if growth > 0 {
		hotFit = n.makeRoom(growth)
		if hotFit < growth {
			spillFit = growth - hotFit
			if n.cfg.SpillBytes > 0 {
				if free := int((n.cfg.SpillBytes - n.SpillUsedBytes()) / ps); free < spillFit {
					spillFit = free
				}
				if spillFit < 0 {
					spillFit = 0
				}
			}
			rejected := growth - hotFit - spillFit
			if rejected > 0 {
				n.fullRejectPages += int64(rejected)
				accepted -= rejected
				growth -= rejected
			}
		}
	}
	if accepted <= 0 {
		if created {
			n.freeEntry(e)
		}
		return 0
	}

	e.hot += hotFit
	n.hotPages += int64(hotFit)
	e.spill += spillFit
	n.spillPages += int64(spillFit)
	n.spilledPages += int64(spillFit)
	newCount := cur + accepted
	if e.shared {
		if cur == e.maxPages && e.maxPages > 0 {
			e.atMax--
		}
		e.refs[owner] = newCount
		if newCount > e.maxPages {
			e.maxPages = newCount
			e.atMax = 1
		} else if newCount == e.maxPages {
			e.atMax++
		}
	} else {
		e.pages = newCount
	}
	n.logicalPages += int64(accepted)
	n.tenants[n.tenantOf(fn)] += int64(accepted) * ps
	n.registerOwner(owner, fn, key, int64(accepted))
	n.lruTouch(e)
	if e.shared {
		n.cacheResync(e)
	}

	if lb := n.LogicalBytes(); lb > n.peakLogicalBytes {
		n.peakLogicalBytes = lb
	}
	if rb := n.ResidentBytes(); rb > n.peakResidentBytes {
		n.peakResidentBytes = rb
	}
	return accepted
}

// Recall releases pages an owner holds (a demand fault or bulk recall on the
// compute side) and prices the tier surcharge: the fraction of the resident
// copy living compressed pays decompressLatency per page, the spilled
// fraction spillLatency. Releasing the last reference frees the resident
// copy.
func (n *Node) Recall(owner, fn string, class Class, pages int) RecallCost {
	if pages <= 0 {
		return RecallCost{}
	}
	key := n.key(owner, fn, class)
	e := n.entries[key]
	if e == nil {
		return RecallCost{}
	}
	cur := e.pages
	if e.shared {
		cur = e.refs[owner]
	}
	if pages > cur {
		pages = cur
	}
	if pages == 0 {
		return RecallCost{}
	}

	lat := n.tierSurcharge(e, pages, n.tenantOf(fn))

	n.release(e, owner, pages)
	n.logicalPages -= int64(pages)
	n.tenants[n.tenantOf(fn)] -= int64(pages) * pagemem.DefaultPageSize
	if or := n.owners[owner]; or != nil {
		or.pages -= int64(pages)
	}
	return RecallCost{Pages: pages, Latency: lat}
}

// ReadCost prices reading pages an owner holds *without* releasing them —
// the pool-side share of mapping a shared-state region read-shared: the
// fraction of the resident copy living compressed pays decompressLatency per
// page, the spilled fraction spillLatency, exactly like Recall, but the
// holdings, the ledger, and the resident copy are untouched so the next
// consumer can map the same region. The entry is touched (MRU) — a region
// under active mapping resists eviction.
func (n *Node) ReadCost(owner, fn string, class Class, pages int) RecallCost {
	if pages <= 0 {
		return RecallCost{}
	}
	key := n.key(owner, fn, class)
	e := n.entries[key]
	if e == nil {
		return RecallCost{}
	}
	cur := e.pages
	if e.shared {
		cur = e.refs[owner]
	}
	if pages > cur {
		pages = cur
	}
	if pages == 0 {
		return RecallCost{}
	}
	lat := n.tierSurcharge(e, pages, n.tenantOf(fn))
	n.lruTouch(e)
	return RecallCost{Pages: pages, Latency: lat}
}

// tierSurcharge prices reading pages of e's resident copy — the fraction
// living compressed pays decompressLatency per page, the spilled fraction
// spillLatency — consulting the shared cache tier first: a cached master
// serves hot copies with no surcharge, a cacheable miss pays the surcharge
// and admits the master (charged to the reading tenant).
func (n *Node) tierSurcharge(e *entry, pages int, tenant string) time.Duration {
	if n.cacheHas(e) {
		n.cacheHitPages += int64(pages)
		return 0
	}
	var lat time.Duration
	if rt := e.residentTarget(); rt > 0 {
		comp := float64(e.comp) / float64(rt) * float64(pages)
		spill := float64(e.spill) / float64(rt) * float64(pages)
		dec := time.Duration(comp * float64(decompressLatency))
		lat = dec + time.Duration(spill*float64(spillLatency))
		n.decompressTime += dec
	}
	if n.cache != nil && e.shared {
		n.cacheMissPages += int64(pages)
		n.cacheInsert(e, tenant)
	}
	return lat
}

// OwnerPages reports one owner's logical page holdings of a single class —
// what a region manager can still read back for its consumers.
func (n *Node) OwnerPages(owner, fn string, class Class) int {
	e := n.entries[n.key(owner, fn, class)]
	if e == nil {
		return 0
	}
	if e.shared {
		return e.refs[owner]
	}
	return e.pages
}

// DiscardOwner drops everything a container holds (its recycle path) without
// transfer or latency, and returns the logical bytes freed.
func (n *Node) DiscardOwner(owner string) int64 {
	or := n.owners[owner]
	if or == nil {
		return 0
	}
	ps := int64(pagemem.DefaultPageSize)
	var freed int64
	for _, key := range or.keys {
		e := n.entries[key]
		if e == nil {
			continue
		}
		cur := 0
		if e.shared {
			cur = e.refs[owner]
		} else if key.owner == owner {
			cur = e.pages
		}
		if cur == 0 {
			continue
		}
		n.release(e, owner, cur)
		freed += int64(cur)
	}
	n.tenants[n.tenantOf(or.fn)] -= freed * ps
	n.logicalPages -= freed
	delete(n.owners, owner)
	return freed * ps
}

// release drops pages of owner's holding against e, shrinking the resident
// copy when the longest offloaded prefix shrinks and freeing the entry when
// the last reference goes.
func (n *Node) release(e *entry, owner string, pages int) {
	if e.shared {
		cur := e.refs[owner]
		newCount := cur - pages
		if cur == e.maxPages {
			e.atMax--
		}
		if newCount > 0 {
			e.refs[owner] = newCount
		} else {
			delete(e.refs, owner)
		}
		if e.atMax == 0 {
			// The longest prefix shrank; recompute it. Map iteration order
			// does not matter for a max+count.
			newMax, cnt := 0, 0
			for _, v := range e.refs {
				if v > newMax {
					newMax, cnt = v, 1
				} else if v == newMax {
					cnt++
				}
			}
			shrink := e.maxPages - newMax
			e.maxPages, e.atMax = newMax, cnt
			n.shrinkEntry(e, shrink)
			n.cacheResync(e)
		}
		if len(e.refs) == 0 {
			n.freeEntry(e)
			return
		}
	} else {
		e.pages -= pages
		n.shrinkEntry(e, pages)
		if e.pages == 0 {
			n.freeEntry(e)
			return
		}
	}
	n.lruTouch(e)
}

// shrinkEntry frees k resident pages from e, coldest copies first (spill,
// then compressed, then hot), keeping the tier sum equal to the resident
// target.
func (n *Node) shrinkEntry(e *entry, k int) {
	if k <= 0 {
		return
	}
	if d := min(k, e.spill); d > 0 {
		e.spill -= d
		n.spillPages -= int64(d)
		k -= d
	}
	if d := min(k, e.comp); d > 0 {
		n.compStoredBytes += n.compStored(e.comp-d) - n.compStored(e.comp)
		e.comp -= d
		n.compPages -= int64(d)
		k -= d
	}
	if d := min(k, e.hot); d > 0 {
		e.hot -= d
		n.hotPages -= int64(d)
		k -= d
	}
	if k > 0 {
		panic(fmt.Sprintf("memnode: shrink underflow on %v (%d pages left)", e.key, k))
	}
}

// freeEntry removes an empty entry from the store.
func (n *Node) freeEntry(e *entry) {
	n.cacheDrop(e.key)
	n.shrinkEntry(e, e.residentTarget())
	if e.shared {
		e.maxPages, e.atMax = 0, 0
	} else {
		e.pages = 0
	}
	n.shrinkEntry(e, e.hot+e.comp+e.spill)
	n.lruRemove(e)
	delete(n.entries, e.key)
}

// makeRoom tries to fit `pages` new hot pages in DRAM: first compress cold
// entries (LRU within the victim class order), then demote to spill, then
// give up and report how many pages actually fit.
func (n *Node) makeRoom(pages int) int {
	ps := int64(pagemem.DefaultPageSize)
	over := func() int64 {
		return n.DRAMUsedBytes() + int64(pages)*ps - n.cfg.DRAMBytes
	}
	if over() <= 0 {
		return pages
	}

	if !n.cfg.DisableCompression {
		for _, cls := range victimOrder {
			for e := n.lruHead[cls]; e != nil && over() > 0; e = e.next {
				if e.hot == 0 {
					continue
				}
				n.compressEntry(e)
			}
			if over() <= 0 {
				return pages
			}
		}
	}

	// Demote to spill, LRU-by-class, page-granular up to the deficit.
	spillFree := func() int64 {
		if n.cfg.SpillBytes <= 0 {
			return math.MaxInt64 / 4
		}
		return n.cfg.SpillBytes - n.SpillUsedBytes()
	}
	for _, cls := range victimOrder {
		for e := n.lruHead[cls]; e != nil; e = e.next {
			o := over()
			if o <= 0 {
				return pages
			}
			free := spillFree()
			if free < ps {
				break
			}
			// Hot pages first: each frees a full raw page of DRAM. The
			// compressed tier barely occupies DRAM, so it spills last.
			k := min(e.hot, int(min((o+ps-1)/ps, free/ps)))
			if k > 0 {
				e.hot -= k
				e.spill += k
				n.hotPages -= int64(k)
				n.spillPages += int64(k)
				n.noteSpill(k)
			}
			if o = over(); o <= 0 {
				return pages
			}
			if free = spillFree(); free < ps || e.comp == 0 {
				continue
			}
			k = min(e.comp, int(free/ps))
			if k > 0 {
				n.compStoredBytes += n.compStored(e.comp-k) - n.compStored(e.comp)
				e.comp -= k
				e.spill += k
				n.compPages -= int64(k)
				n.spillPages += int64(k)
				n.noteSpill(k)
			}
		}
		if over() <= 0 {
			return pages
		}
	}

	if o := over(); o > 0 {
		drop := int((o + ps - 1) / ps)
		if drop > pages {
			drop = pages
		}
		pages -= drop
	}
	return pages
}

// compressEntry moves an entry's whole hot tier into the compressed tier
// (zswap compresses cold segments wholesale).
func (n *Node) compressEntry(e *entry) {
	k := e.hot
	if k == 0 {
		return
	}
	n.compStoredBytes += n.compStored(e.comp+k) - n.compStored(e.comp)
	e.hot = 0
	e.comp += k
	n.hotPages -= int64(k)
	n.compPages += int64(k)
	n.compressedPages += int64(k)
	n.compressTime += time.Duration(k) * compressLatency
}

func (n *Node) noteSpill(pages int) {
	n.spilledPages += int64(pages)
	n.evictions++
}

// registerOwner indexes the owner's association with key for DiscardOwner.
// Every registration of one owner must describe the same function (a
// container runs exactly one function); the first registration records it.
func (n *Node) registerOwner(owner, fn string, key entryKey, pages int64) {
	or := n.owners[owner]
	if or == nil {
		or = &ownerRefs{fn: fn, seen: make(map[entryKey]bool)}
		n.owners[owner] = or
	} else if or.fn != fn {
		panic(fmt.Sprintf("memnode: owner %s registered for %s and %s", owner, or.fn, fn))
	}
	if !or.seen[key] {
		or.seen[key] = true
		or.keys = append(or.keys, key)
	}
	or.pages += pages
}

// TenantLogicalBytes reports one tenant's logical holdings.
func (n *Node) TenantLogicalBytes(tenant string) int64 { return n.tenants[tenant] }

// TenantUsage is one tenant's logical holdings on the node.
type TenantUsage struct {
	// Tenant is the tenant identifier.
	Tenant string
	// LogicalBytes is the tenant's logical footprint.
	LogicalBytes int64
}

// TenantUsages lists every tenant with a non-zero logical footprint, sorted
// by tenant so iteration order is deterministic — the per-tenant quota-
// pressure feed for the timeline sampler.
func (n *Node) TenantUsages() []TenantUsage {
	out := make([]TenantUsage, 0, len(n.tenants))
	for t, b := range n.tenants {
		if b > 0 {
			out = append(out, TenantUsage{Tenant: t, LogicalBytes: b})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Stats snapshots the node.
func (n *Node) Stats() Stats {
	return Stats{
		LogicalBytes:       n.LogicalBytes(),
		ResidentBytes:      n.ResidentBytes(),
		DRAMUsedBytes:      n.DRAMUsedBytes(),
		SpillUsedBytes:     n.SpillUsedBytes(),
		DedupSavedBytes:    n.DedupSavedBytes(),
		CompressSavedBytes: n.CompressSavedBytes(),
		PeakLogicalBytes:   n.peakLogicalBytes,
		PeakResidentBytes:  n.peakResidentBytes,
		Entries:            len(n.entries),
		Owners:             len(n.owners),
		DedupHitPages:      n.dedupHitPages,
		CompressedPages:    n.compressedPages,
		SpilledPages:       n.spilledPages,
		Evictions:          n.evictions,
		QuotaRejectPages:   n.quotaRejectPages,
		FullRejectPages:    n.fullRejectPages,
		MergedPages:        n.mergedPages,
		UnmergeBreaks:      n.unmergeBreaks,
		UnmergedPages:      n.unmergedPages,
		UnmergeRecallPages: n.unmergeRecall,
		CacheHitPages:      n.cacheHitPages,
		CacheMissPages:     n.cacheMissPages,
		CacheEvictions:     n.cacheEvictions,
		CacheUsedBytes:     n.CacheUsedBytes(),
		CompressTime:       n.compressTime,
		DecompressTime:     n.decompressTime,
	}
}

// --- per-class LRU lists ---

func (n *Node) lruPush(e *entry) {
	cls := e.key.class
	e.prev = n.lruTail[cls]
	e.next = nil
	if n.lruTail[cls] != nil {
		n.lruTail[cls].next = e
	} else {
		n.lruHead[cls] = e
	}
	n.lruTail[cls] = e
}

func (n *Node) lruRemove(e *entry) {
	cls := e.key.class
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		n.lruHead[cls] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		n.lruTail[cls] = e.prev
	}
	e.prev, e.next = nil, nil
}

func (n *Node) lruTouch(e *entry) {
	if n.lruTail[e.key.class] == e {
		return
	}
	n.lruRemove(e)
	n.lruPush(e)
}

// CheckInvariants verifies the store's accounting identities; tests call it
// after every mutation batch. It returns nil when consistent.
func (n *Node) CheckInvariants() error {
	var logical, hot, comp, spill, stored int64
	for key, e := range n.entries {
		if key != e.key {
			return fmt.Errorf("entry keyed %v carries key %v", key, e.key)
		}
		if e.shared {
			if len(e.refs) == 0 {
				return fmt.Errorf("shared entry %v has no refs", key)
			}
			maxP, cnt := 0, 0
			for owner, v := range e.refs {
				if v <= 0 {
					return fmt.Errorf("entry %v holds %d pages for %s", key, v, owner)
				}
				logical += int64(v)
				if v > maxP {
					maxP, cnt = v, 1
				} else if v == maxP {
					cnt++
				}
			}
			if maxP != e.maxPages || cnt != e.atMax {
				return fmt.Errorf("entry %v max/atMax = %d/%d, want %d/%d", key, e.maxPages, e.atMax, maxP, cnt)
			}
		} else {
			if e.pages <= 0 {
				return fmt.Errorf("private entry %v holds %d pages", key, e.pages)
			}
			logical += int64(e.pages)
		}
		if got := e.hot + e.comp + e.spill; got != e.residentTarget() {
			return fmt.Errorf("entry %v tiers sum to %d, want resident %d", key, got, e.residentTarget())
		}
		hot += int64(e.hot)
		comp += int64(e.comp)
		spill += int64(e.spill)
		stored += n.compStored(e.comp)
	}
	if logical != n.logicalPages {
		return fmt.Errorf("logical pages = %d, entries sum to %d", n.logicalPages, logical)
	}
	if hot != n.hotPages || comp != n.compPages || spill != n.spillPages {
		return fmt.Errorf("tier totals %d/%d/%d, entries sum to %d/%d/%d",
			n.hotPages, n.compPages, n.spillPages, hot, comp, spill)
	}
	if stored != n.compStoredBytes {
		return fmt.Errorf("compressed stored bytes = %d, entries sum to %d", n.compStoredBytes, stored)
	}
	var ownerPages int64
	for owner, or := range n.owners {
		if or.pages < 0 {
			return fmt.Errorf("owner %s holds %d pages", owner, or.pages)
		}
		ownerPages += or.pages
	}
	if ownerPages != n.logicalPages {
		return fmt.Errorf("owner holdings sum to %d pages, node logical is %d", ownerPages, n.logicalPages)
	}
	if n.ResidentBytes() > n.LogicalBytes() {
		return fmt.Errorf("resident %d exceeds logical %d", n.ResidentBytes(), n.LogicalBytes())
	}
	if n.cfg.DRAMBytes > 0 && n.DRAMUsedBytes() > n.cfg.DRAMBytes {
		return fmt.Errorf("DRAM used %d exceeds capacity %d", n.DRAMUsedBytes(), n.cfg.DRAMBytes)
	}
	if n.cfg.SpillBytes > 0 && n.SpillUsedBytes() > n.cfg.SpillBytes {
		return fmt.Errorf("spill used %d exceeds capacity %d", n.SpillUsedBytes(), n.cfg.SpillBytes)
	}
	if err := n.checkIsolation(); err != nil {
		return err
	}
	return n.checkCache()
}

// checkIsolation verifies the merge security boundary on every shared master:
// a function-scoped master is referenced only by owners of that function, a
// tenant-scoped master only by owners of that tenant, and a cross-tenant
// master only by owners whose tenants all opted in. A violation means a page
// became reachable across a tenant edge without both sides' consent.
func (n *Node) checkIsolation() error {
	for key, e := range n.entries {
		if !e.shared {
			continue
		}
		for owner := range e.refs {
			or := n.owners[owner]
			if or == nil {
				return fmt.Errorf("shared entry %v references unregistered owner %s", key, owner)
			}
			switch {
			case key.dom == globalDom:
				if t := n.tenantOf(or.fn); !n.optIn[t] {
					return fmt.Errorf("cross-tenant master %v reachable from tenant %s, which never opted in", key, t)
				}
			case strings.HasPrefix(key.dom, tenantDomPrefix):
				if t := n.tenantOf(or.fn); tenantDomPrefix+t != key.dom {
					return fmt.Errorf("tenant master %v reachable from tenant %s", key, t)
				}
			default:
				if or.fn != key.dom {
					return fmt.Errorf("function master %v reachable from function %s", key, or.fn)
				}
			}
		}
	}
	return nil
}

// checkCache verifies the shared cache tier's accounting and its fairness
// invariant: occupancy sums agree per tenant and in total, every cached key
// is a live shared master at its current resident size, total occupancy fits
// CacheBytes, and no occupant exceeds its share of the active set.
func (n *Node) checkCache() error {
	c := n.cache
	if c == nil {
		return nil
	}
	var total int64
	ps := int64(pagemem.DefaultPageSize)
	for key, ce := range c.entries {
		if key != ce.key {
			return fmt.Errorf("cache entry keyed %v carries key %v", key, ce.key)
		}
		e := n.entries[key]
		if e == nil || !e.shared {
			return fmt.Errorf("cache entry %v has no live shared master", key)
		}
		if ce.pages != e.residentTarget() {
			return fmt.Errorf("cache entry %v holds %d pages, master resident is %d", key, ce.pages, e.residentTarget())
		}
		total += int64(ce.pages) * ps
	}
	if total != c.usedBytes {
		return fmt.Errorf("cache used %d, entries sum to %d", c.usedBytes, total)
	}
	if c.usedBytes > c.bytes {
		return fmt.Errorf("cache used %d exceeds capacity %d", c.usedBytes, c.bytes)
	}
	var perTenant int64
	for _, t := range c.activeTenants() {
		var occ int64
		for ce := c.head[t]; ce != nil; ce = ce.next {
			if ce.tenant != t {
				return fmt.Errorf("cache entry %v on tenant %s list carries tenant %s", ce.key, t, ce.tenant)
			}
			occ += int64(ce.pages) * ps
		}
		if occ != c.occ[t] {
			return fmt.Errorf("cache tenant %s occupancy %d, list sums to %d", t, c.occ[t], occ)
		}
		if share := n.cacheShareOf(t); occ > share {
			return fmt.Errorf("cache tenant %s occupies %d, exceeding its fair share %d", t, occ, share)
		}
		perTenant += occ
	}
	if perTenant != c.usedBytes {
		return fmt.Errorf("cache tenant occupancies sum to %d, used is %d", perTenant, c.usedBytes)
	}
	return nil
}
