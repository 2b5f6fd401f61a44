// Package rmem models the remote memory pool side of the architecture: a
// memory node reachable over a high-bandwidth link (InfiniBand/RDMA in the
// paper, ported Fastswap as the swap path).
//
// The model captures the two properties every experiment depends on:
//
//   - a demand fault on an offloaded page pays a fixed fetch latency that
//     inflates request latency (and grows once the link saturates), and
//   - bulk offload/recall traffic is limited by finite link bandwidth, which
//     both serializes concurrent transfers and feeds the paper's bandwidth
//     figures (Fig. 16, §9).
//
// All time is virtual (simtime.Time); the pool never blocks.
package rmem

import (
	"errors"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
)

// Config describes a memory pool node and its link.
type Config struct {
	// Capacity is the pool's total bytes. Zero means unlimited.
	Capacity int64
	// Bandwidth is the link bandwidth in bytes per second. Defaults to a
	// 56 Gbps InfiniBand-class link (the paper's Mellanox FDR setup).
	Bandwidth int64
	// FaultLatency is the base cost of an on-demand 4 KiB page fetch,
	// including the kernel page-fault and swap-in path around the RDMA read
	// (Fastswap's wire time is single-digit microseconds; the end-to-end
	// fault costs more).
	FaultLatency time.Duration
	// SaturationFactor scales fault latency once link utilization passes
	// SaturationPoint: latency multiplies by up to (1 + SaturationFactor).
	// §9 of the paper: "little communication latency increase until the
	// bandwidth is saturated".
	SaturationFactor float64
	// SaturationPoint is the utilization fraction (0..1] where queueing
	// effects begin. Defaults to 0.8.
	SaturationPoint float64
	// FaultPipeline is the number of in-flight demand fetches the swap path
	// sustains (Fastswap issues asynchronous RDMA reads). Batched faults pay
	// FaultLatency once per pipeline-full of pages. Default 4.
	FaultPipeline int
	// Node optionally attaches a simulated pool-side memory node (dedup,
	// compression and spill tiers, tenant quotas). When set, capacity
	// admission consults the node's effective post-dedup/post-compression
	// residency instead of Capacity, and the described offload/recall paths
	// feed it page provenance. The wire/backlog model is unchanged.
	Node *memnode.Config
	// Faults optionally injects a deterministic fault plan beneath the
	// pool: link flaps and crashes fail fetches/offloads with typed errors,
	// degrade windows shrink effective bandwidth, latency spikes inflate
	// fault latency, and tier storms zero the memnode's headroom. A nil or
	// empty plan is dropped at construction, keeping the fault-free path
	// bit-identical to a pool built without this field.
	Faults *faultinject.Plan
}

// The pool's fixed parameters.
const (
	// pageBytes is the size of every page the pool moves.
	pageBytes = pagemem.DefaultPageSize
	// maxBacklog bounds how much transfer work may be queued on the link:
	// an offload is truncated once completing it would push the link's
	// backlog past this horizon. This is what makes a slow pool (the §9 SSD
	// with ~1 MB/s durability-limited writes) genuinely unable to absorb
	// offload traffic.
	maxBacklog = time.Second
	// retryBackoff is FetchRetry's initial backoff, doubling per attempt.
	retryBackoff = 20 * time.Millisecond
	// fetchTimeout bounds FetchRetry's backoff: it gives up rather than
	// wait past it, so a fetch waits at most 20+40+80+160 = 300 ms.
	fetchTimeout = 500 * time.Millisecond
)

// withDefaults fills zero fields with the paper's 2-node CloudLab-like
// setup: a 56 Gbps link and a ~15 µs end-to-end page fault. Capacity stays
// as given, so a zero Config is an unlimited pool.
func (c Config) withDefaults() Config {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 56_000_000_000 / 8 // 56 Gbps in bytes/s
	}
	if c.FaultLatency <= 0 {
		c.FaultLatency = 15 * time.Microsecond
	}
	if c.SaturationPoint <= 0 || c.SaturationPoint > 1 {
		c.SaturationPoint = 0.8
	}
	if c.SaturationFactor <= 0 {
		c.SaturationFactor = 4
	}
	if c.FaultPipeline <= 0 {
		c.FaultPipeline = 4
	}
	return c
}

// The pool's typed fault-path errors. Retry/backoff logic branches on them:
// link-down and pool-down are transient (retryable); pool-full and timeout
// are terminal for the issuing batch.
var (
	// ErrPoolFull is returned when an offload would exceed pool capacity.
	ErrPoolFull = errors.New("rmem: memory pool is full")
	// ErrLinkDown is returned while a link-flap window holds the pool link
	// fully down.
	ErrLinkDown = errors.New("rmem: pool link is down")
	// ErrPoolDown is returned while the pool node is crashed.
	ErrPoolDown = errors.New("rmem: pool node is down")
	// ErrFetchTimeout is returned when FetchRetry's backoff would pass the
	// fetch timeout before the remote path recovers.
	ErrFetchTimeout = errors.New("rmem: page fetch timed out")
)

// Direction labels a transfer for bandwidth accounting.
type Direction int

const (
	// Offload is compute-node → pool traffic (page-out).
	Offload Direction = iota
	// Recall is pool → compute-node traffic (page-in).
	Recall
)

// Pool is a remote memory node plus its link. Not safe for concurrent use;
// the DES engine is single-threaded by design.
type Pool struct {
	cfg       Config
	used      int64
	busyUntil simtime.Time
	meter     [2]*Meter // per direction
	node      *memnode.Node
	// tel is the attached telemetry (Instrument), labelled "pool".
	tel telemetry.Hub
	// nodeSeen is the memory node's Stats at the last noteNode.
	nodeSeen memnode.Stats

	// flt is the injected fault plan; nil when no (or an empty) plan is
	// configured, so every fault branch below is a single nil check on the
	// fault-free path.
	flt *faultinject.Plan
	// healthy tracks the last observed degraded-mode state for edge-
	// triggered enter/exit events.
	healthy bool
	// windowsTraced guards the one-time fault-window trace dump (a rack-
	// shared pool is instrumented once per attached platform).
	windowsTraced bool
	// gauges is the per-window pool sampler; its recorder is set once a
	// platform claims it.
	gauges poolGauges
}

// NewPool creates a pool from cfg, applying defaults for zero fields.
func NewPool(cfg Config) *Pool {
	c := cfg.withDefaults()
	p := &Pool{
		cfg:     c,
		meter:   [2]*Meter{NewMeter(time.Second), NewMeter(time.Second)},
		healthy: true,
	}
	if c.Node != nil {
		p.node = memnode.New(*c.Node)
	}
	if c.Faults != nil && !c.Faults.Empty() {
		p.flt = c.Faults
	}
	return p
}

// Node returns the attached pool-side memory node, or nil.
func (p *Pool) Node() *memnode.Node { return p.node }

// Used returns bytes currently stored in the pool.
func (p *Pool) Used() int64 { return p.used }

// Meter returns the bandwidth meter for a direction.
func (p *Pool) Meter(d Direction) *Meter { return p.meter[d] }

// bandwidthAt returns the link's effective bandwidth at now: the configured
// rate, shrunk by an active degrade window when a fault plan is injected.
func (p *Pool) bandwidthAt(now simtime.Time) float64 {
	bw := float64(p.cfg.Bandwidth)
	if p.flt != nil {
		bw *= p.flt.BandwidthFactor(now)
		if bw < 1 {
			bw = 1
		}
	}
	return bw
}

// transferTime returns how long moving n bytes takes at full bandwidth.
func (p *Pool) transferTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(p.cfg.Bandwidth) * float64(time.Second))
}

// transferTimeAt is transferTime at the effective (possibly degraded)
// bandwidth in force at now.
func (p *Pool) transferTimeAt(now simtime.Time, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	if p.flt == nil {
		return p.transferTime(bytes)
	}
	return time.Duration(float64(bytes) / p.bandwidthAt(now) * float64(time.Second))
}

// reserve serializes a bulk transfer on the link, FIFO.
func (p *Pool) reserve(now simtime.Time, bytes int64) (start, done simtime.Time) {
	start = now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done = start + p.transferTimeAt(start, bytes)
	p.busyUntil = done
	return start, done
}

// Backlog returns how long the link's queued bulk work extends past now:
// the wait a transfer enqueued at now would incur before starting.
func (p *Pool) Backlog(now simtime.Time) time.Duration {
	if p.busyUntil <= now {
		return 0
	}
	return time.Duration(p.busyUntil - now)
}

// BacklogBytes converts Backlog to the bytes still queued on the wire.
func (p *Pool) BacklogBytes(now simtime.Time) int64 {
	return int64(p.Backlog(now).Seconds() * p.bandwidthAt(now))
}

// AcceptableBytes reports how many bytes the link can accept for offload at
// time now before its queued backlog exceeds maxBacklog, additionally capped
// by remaining pool capacity. Offloaders should truncate their batches to
// this budget.
func (p *Pool) AcceptableBytes(now simtime.Time) int64 {
	if p.flt != nil {
		// Degraded mode pauses offload entirely: an unhealthy link accepts
		// nothing, and a tier storm zeroes the node's headroom.
		p.noteHealth(now)
		if p.flt.Unhealthy(now) || p.flt.TierStorm(now) {
			return 0
		}
	}
	slack := maxBacklog
	if p.busyUntil > now {
		slack -= p.busyUntil - now
	}
	if slack <= 0 {
		return 0
	}
	budget := int64(slack.Seconds() * p.bandwidthAt(now))
	if p.node != nil {
		// Effective headroom: the node dedups and compresses, so it can
		// accept more logical bytes than its raw free DRAM.
		if free := p.node.AcceptableBytes(); free < budget {
			budget = free
		}
	} else if p.cfg.Capacity > 0 {
		if free := p.cfg.Capacity - p.used; free < budget {
			budget = free
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// FaultStall decomposes the latency a batch of demand faults adds to a
// request: Total is what the request observes, Queueing the share caused by
// link congestion (the saturation surcharge), and BacklogBytes the bulk
// work queued on the wire when the faults were issued. Attribution uses the
// split to separate "pages were remote" from "the link was busy".
type FaultStall struct {
	Total        time.Duration
	Queueing     time.Duration
	BacklogBytes int64
	// Tier is the pool-side tier surcharge (decompression and spill reads)
	// when a memory node is attached; it is included in Total.
	Tier time.Duration
	// Injected is the extra latency added by an active fault-plan latency
	// spike; it is included in Total.
	Injected time.Duration
	// Backoff is the retry wait FetchRetry spent before the fetch finally
	// went through; it is included in Total. Retries counts the failed
	// attempts. Both are zero without a fault plan.
	Backoff time.Duration
	Retries int
}

// demandFetch prices a pipelined demand read of pages pages, bytes on the
// wire, whose bytes the caller already metered: one FaultLatency per
// pipeline round plus the wire time, inflated by an active latency spike and
// then by the saturation surcharge, plus the pool-side tier surcharge tier.
// Fault batches, copy-on-write unmerge fetches and shared-region reads all
// pay this price.
func (p *Pool) demandFetch(now simtime.Time, pages int, bytes int64, tier time.Duration) FaultStall {
	rounds := time.Duration((pages + p.cfg.FaultPipeline - 1) / p.cfg.FaultPipeline)
	lat := rounds*p.cfg.FaultLatency + p.transferTimeAt(now, bytes)
	stall := FaultStall{BacklogBytes: p.BacklogBytes(now), Tier: tier}
	if p.flt != nil {
		if f := p.flt.LatencyFactor(now); f > 1 {
			stall.Injected = time.Duration(float64(rounds*p.cfg.FaultLatency) * (f - 1))
			lat += stall.Injected
			p.tel.InjectedStall(stall.Injected)
		}
	}
	util := p.Utilization(now)
	if util > p.cfg.SaturationPoint {
		over := (util - p.cfg.SaturationPoint) / (1 - p.cfg.SaturationPoint)
		if over > 1 {
			over = 1
		}
		stall.Queueing = time.Duration(float64(lat) * over * p.cfg.SaturationFactor)
		lat += stall.Queueing
		p.tel.LinkSaturation(now, util)
	}
	stall.Total = lat + tier
	return stall
}

// Utilization estimates current link utilization in [0, 1+] from the recent
// transfer rate in both directions.
func (p *Pool) Utilization(now simtime.Time) float64 {
	rate := p.meter[Offload].Rate(now) + p.meter[Recall].Rate(now)
	return rate / p.bandwidthAt(now)
}
