// Package fastswap models the swap-path bookkeeping of the paper's ported
// Fastswap: offloaded pages occupy swapfile slots, and demand faults may
// read ahead neighbouring slots the way the kernel's swap readahead
// (vm.page-cluster) does.
//
// The remote pool (rmem) models the wire; this package models the kernel
// side: the slot gauge and the virtually-contiguous prefetch window that
// turns one fault into a cluster read. The swapfile is never the binding
// limit (the artifact provisions 32 GiB), so the device has no capacity.
// Every remote page holds one slot, so the device keeps no occupancy count
// of its own: callers pass the node's remote page count. Readahead is the
// hook for the §10 "prefetching remote memory" (Leap) extension.
package fastswap

import (
	"time"

	"github.com/faasmem/faasmem/internal/telemetry"
)

// Config configures a node's swap device: readahead and the local fallback.
type Config struct {
	// ReadaheadPages is how many virtually-contiguous remote neighbours one
	// fault pulls in alongside the faulting page (vm.page-cluster=3 reads
	// 8 pages). Zero disables readahead.
	ReadaheadPages int
	// FallbackReadLatency, when positive, models a write-through local copy
	// of every offloaded page (dual swap backends: RDMA primary, disk
	// secondary). A fetch that times out against the pool can then be
	// served locally at this per-page read latency instead of forcing a
	// cold re-init. Zero disables the fallback.
	FallbackReadLatency time.Duration
}

// Device is one node's swap device. The zero value is not usable; construct
// with NewDevice.
type Device struct {
	cfg Config

	slotsUsed     *telemetry.Metric // gauge, nil no-op until Instrument
	clusterReadsM *telemetry.Metric
	clusterPagesM *telemetry.Metric
	fallbackPgsM  *telemetry.Metric
}

// NewDevice creates a swap device.
func NewDevice(cfg Config) *Device {
	if cfg.ReadaheadPages < 0 {
		cfg.ReadaheadPages = 0
	}
	return &Device{cfg: cfg}
}

// Instrument attaches a metric registry; a nil registry leaves the device's
// metrics as no-ops.
func (d *Device) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	d.slotsUsed = reg.Gauge("faasmem_swap_slots_used", "occupied swapfile slots")
	d.clusterReadsM = reg.Counter("faasmem_swap_cluster_reads_total", "demand faults that pulled a readahead cluster")
	d.clusterPagesM = reg.Counter("faasmem_swap_cluster_pages_total", "pages prefetched by readahead cluster reads")
	d.fallbackPgsM = reg.Counter("faasmem_swap_fallback_pages_total", "pages served from the local write-through copy after a pool fetch timeout")
}

// SetUsed records used occupied slots on the slot gauge.
func (d *Device) SetUsed(used int) { d.slotsUsed.Set(int64(used)) }

// Readahead reports the prefetch window for one fault (0 = disabled).
func (d *Device) Readahead() int { return d.cfg.ReadaheadPages }

// NoteClusterRead records that a request's fault batch pulled pages pages
// of readahead alongside the demand fetches — the swap-path side of the
// attribution story, distinguishing "one fault, one page" stalls from
// cluster reads that amortize the wire round-trip.
func (d *Device) NoteClusterRead(pages int) {
	if pages <= 0 {
		return
	}
	d.clusterReadsM.Inc()
	d.clusterPagesM.Add(int64(pages))
}

// FallbackEnabled reports whether the device keeps a write-through local
// copy a timed-out pool fetch can fall back to.
func (d *Device) FallbackEnabled() bool { return d.cfg.FallbackReadLatency > 0 }

// FallbackRead serves pages from the local write-through copy after a pool
// fetch timeout and returns the read latency the request observes. Callers
// must release the pool-side ledger separately (rmem.RecallLocal).
func (d *Device) FallbackRead(pages int) time.Duration {
	if pages <= 0 || !d.FallbackEnabled() {
		return 0
	}
	d.fallbackPgsM.Add(int64(pages))
	return time.Duration(pages) * d.cfg.FallbackReadLatency
}
