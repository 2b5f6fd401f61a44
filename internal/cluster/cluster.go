// Package cluster composes multiple compute nodes around one rack-level
// memory pool — the deployment §9 of the paper sketches: memory pools are
// configured per rack, ~10 compute nodes share one memory node, and pooling
// harvests density from load-imbalanced nodes.
//
// Each node is a faas.Platform with its own policy instance and (optionally)
// a local DRAM limit; all nodes offload into a single shared rmem.Pool, so
// link bandwidth and pool capacity are genuinely contended across the rack.
package cluster

import (
	"fmt"

	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/workload"
)

// Config describes a rack.
type Config struct {
	// Nodes is the number of compute nodes. Default 10 (§9's rack).
	Nodes int
	// Node is the per-node platform configuration; its Pool field is ignored
	// in favor of the shared rack pool.
	Node faas.Config
	// Pool configures the shared rack-level memory pool.
	Pool rmem.Config
}

// Cluster is a rack of compute nodes sharing one memory pool.
type Cluster struct {
	engine *simtime.Engine
	pool   *rmem.Pool
	nodes  []*faas.Platform
	// rescheduled counts warm reuses redirected away from nodes without
	// enough local headroom to recall the container's remote pages — the
	// load-imbalance rescheduling the paper's §9 leaves as future work.
	rescheduled int
	// submitted counts every request routed through Invoke, so resilience
	// experiments can assert none are lost across fault recovery.
	submitted int
	// rescheduledFault counts requests diverted away from semi-warm
	// containers whose remote pages were unreachable (memnode down or link
	// flapping); those containers become eligible again on recovery.
	rescheduledFault int
	// tel is the rack's telemetry, labelled "rack".
	tel telemetry.Hub
}

// New builds a rack. newPolicy is invoked once per node so policies keep
// per-node state (as the per-node FaaSMem daemon would).
func New(engine *simtime.Engine, cfg Config, newPolicy func() policy.Policy) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 10
	}
	c := &Cluster{
		engine: engine,
		pool:   rmem.NewPool(cfg.Pool),
		tel:    cfg.Node.Telemetry.Attach("rack"),
	}
	for i := 0; i < cfg.Nodes; i++ {
		nodeCfg := cfg.Node
		nodeCfg.Seed = cfg.Node.Seed + int64(i)*1_000_003
		// Container IDs repeat across platforms; distinct node IDs keep
		// described-page owners unique on the shared memory node.
		nodeCfg.NodeID = fmt.Sprintf("n%d", i)
		c.nodes = append(c.nodes, faas.NewWithPool(engine, nodeCfg, newPolicy(), c.pool))
	}
	return c
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *simtime.Engine { return c.engine }

// Pool returns the shared rack pool.
func (c *Cluster) Pool() *rmem.Pool { return c.pool }

// Nodes returns the compute nodes.
func (c *Cluster) Nodes() []*faas.Platform { return c.nodes }

// Register registers the function on every node so any node can host its
// containers.
func (c *Cluster) Register(id string, prof *workload.Profile) {
	for _, n := range c.nodes {
		n.Register(id, prof)
	}
}

// Invoke routes one request for the function at the current virtual time.
// hooks carries a workflow stage's state-passing callbacks (nil for a plain
// request).
func (c *Cluster) Invoke(fnID string, hooks *faas.StageHooks) {
	c.submitted++
	n, faultResched := c.pickNode(fnID)
	if faultResched {
		c.rescheduledFault++
		c.tel.RescheduledFault(c.engine.Now(), fnID)
	}
	n.Invoke(fnID, hooks, faultResched)
}

// ScheduleInvocations schedules a timeline; routing happens at fire time so
// decisions see current node state. Like the platform's, it keeps one
// arrival pending at a time, so times is read while the run proceeds and
// must not change afterwards. An unregistered function panics here, before
// any request is counted.
func (c *Cluster) ScheduleInvocations(fnID string, times []simtime.Time) {
	if c.nodes[0].Function(fnID) == nil {
		panic("cluster: schedule for unregistered function " + fnID)
	}
	c.engine.Arrivals(times, func(*simtime.Engine) { c.Invoke(fnID, nil) })
}

// pickNode routes warm-first: it prefers a node holding an idle container
// for the function, the most recently idled one across nodes, falling back
// to the node with the least local memory in use. This is the
// affinity-style routing serverless schedulers use to maximize warm starts.
// faultResched reports that the choice was diverted away from an idle
// container whose remote pages are behind an unhealthy pool link or crashed
// memory node — those candidates would stall in fetch retries, so the
// request is steered to a fully-local container or a fresh launch until the
// pool recovers.
func (c *Cluster) pickNode(fnID string) (n *faas.Platform, faultResched bool) {
	var warm, strapped *faas.Platform
	var warmIdle, strappedIdle simtime.Time
	var footprint int64
	faultAvoided := false
	degraded := !c.pool.Healthy(c.engine.Now())
	for _, n := range c.nodes {
		f := n.Function(fnID)
		if f == nil {
			continue
		}
		footprint = f.Profile().TotalBytes()
		ic := f.IdleContainer()
		if ic == nil {
			continue
		}
		// While the pool is unreachable, a semi-warm candidate's remote
		// pages cannot be recalled; skip it rather than stall the
		// request in fetch retries. It rejoins the pool of candidates
		// as soon as the fault window closes.
		if degraded && ic.Space().RemoteBytes() > 0 {
			faultAvoided = true
			continue
		}
		// §9 future work: a semi-warm container needs its remote pages
		// back; a node whose DRAM cannot absorb the recall is a strapped
		// candidate, reused only if rescheduling has no better target.
		if limit := n.Config().NodeMemoryLimit; limit > 0 &&
			n.NodeLocalBytes()+ic.Space().RemoteBytes() > limit {
			if strapped == nil || ic.IdleSince() > strappedIdle {
				strapped = n
				strappedIdle = ic.IdleSince()
			}
			continue
		}
		// Prefer the most recently idled container across nodes,
		// mirroring per-node LIFO reuse.
		if warm == nil || ic.IdleSince() > warmIdle {
			warm = n
			warmIdle = ic.IdleSince()
		}
	}
	if warm != nil {
		return warm, faultAvoided
	}
	if strapped != nil {
		// Reschedule only when another node can host a fresh container
		// without blowing its own limit; otherwise the strapped reuse is
		// still the cheapest option (eviction absorbs the overflow).
		alt := c.leastMemoryNode()
		if alt != strapped {
			if limit := alt.Config().NodeMemoryLimit; limit <= 0 ||
				alt.NodeLocalBytes()+footprint <= limit {
				c.rescheduled++
				return alt, faultAvoided
			}
		}
		return strapped, faultAvoided
	}
	return c.leastMemoryNode(), faultAvoided
}

func (c *Cluster) leastMemoryNode() *faas.Platform {
	best := c.nodes[0]
	for _, n := range c.nodes[1:] {
		if n.NodeLocalBytes() < best.NodeLocalBytes() {
			best = n
		}
	}
	return best
}

// Stats aggregates rack-wide observations.
type Stats struct {
	Requests, ColdStarts, WarmStarts, SemiWarmStarts int
	Evicted                                          int
	// TotalLocalAvgMB sums the nodes' time-weighted average local memory.
	TotalLocalAvgMB float64
	// PeakNodeLocalMB is the highest per-node peak.
	PeakNodeLocalMB float64
	// PoolPeakUsedMB would require sampling; PoolUsedMB is current.
	PoolUsedMB float64
	// OffloadBWMBps is the rack link's lifetime-average offload bandwidth.
	OffloadBWMBps float64
	// LiveContainers is the current rack-wide container count.
	LiveContainers int
	// Rescheduled counts reuses redirected off memory-strapped nodes.
	Rescheduled int
	// Submitted counts requests routed through Invoke; after a full drain
	// every one is accounted for in the nodes' completion classes.
	Submitted int
	// RescheduledFault counts requests diverted away from semi-warm
	// containers stranded behind an unhealthy pool.
	RescheduledFault int
	// Recovery aggregates the nodes' fault-recovery counters (retries,
	// timeouts, fallbacks, re-inits, completion classes).
	Recovery faas.RecoveryStats
	// MemNode snapshots the shared pool-side memory node (dedup, tiers,
	// quotas) when one is attached; nil otherwise.
	MemNode *memnode.Stats
}

// Stats collects rack-wide statistics as of now.
func (c *Cluster) Stats() Stats {
	var s Stats
	now := c.engine.Now()
	for _, n := range c.nodes {
		agg := n.Aggregate()
		s.Requests += agg.Requests
		s.ColdStarts += agg.ColdStarts
		s.WarmStarts += agg.WarmStarts
		s.SemiWarmStarts += agg.SemiWarmStarts
		s.Evicted += n.EvictedContainers()
		s.TotalLocalAvgMB += n.NodeLocalAvg() / 1e6
		if peak := float64(n.NodeLocalPeak()) / 1e6; peak > s.PeakNodeLocalMB {
			s.PeakNodeLocalMB = peak
		}
		s.LiveContainers += n.LiveContainers()
		s.Recovery.Add(n.Recovery())
	}
	s.Rescheduled = c.rescheduled
	s.Submitted = c.submitted
	s.RescheduledFault = c.rescheduledFault
	s.PoolUsedMB = float64(c.pool.Used()) / 1e6
	s.OffloadBWMBps = c.pool.Meter(rmem.Offload).Average(now) / 1e6
	if mn := c.pool.Node(); mn != nil {
		st := mn.Stats()
		s.MemNode = &st
	}
	return s
}
