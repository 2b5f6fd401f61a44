package rmem

import "time"

// This file provides the alternative memory-pool technologies the paper's
// §9 discussion weighs against the RDMA pool: CXL-attached memory (faster,
// "FaaSMem's mechanism can also be applied") and SSD swap (rejected because
// write-durability limits throttle it to ~1 MB/s at Meta). They make the
// trade-off reproducible: see the PoolComparison extension experiment.

// CXLConfig returns a CXL-based memory pool: load/store-class latency
// (sub-microsecond per cacheline translates to a few microseconds per 4 KiB
// page walk) and higher per-link bandwidth than the FDR InfiniBand setup.
func CXLConfig() Config {
	return Config{
		Capacity:         64 << 30,
		Bandwidth:        64_000_000_000, // ~64 GB/s CXL 2.0 x8-class
		FaultLatency:     2 * time.Microsecond,
		SaturationFactor: 2,
		SaturationPoint:  0.85,
		FaultPipeline:    16,
	}
}

// SSDConfig returns an SSD-backed swap target with the write throttling §9
// cites ("Meta needs to limit their write speeds to less than 1 MB/s"):
// offload bandwidth collapses and faults pay NVMe read latency. The one
// Bandwidth also prices demand-fault reads (demandFetch → transferTimeAt),
// so faults are throttled to 1 MB/s too; a separate read rate waits for a
// source.
func SSDConfig() Config {
	return Config{
		Capacity:         256 << 30,
		Bandwidth:        1_000_000, // durability-limited writes; reads share it
		FaultLatency:     90 * time.Microsecond,
		SaturationFactor: 8,
		SaturationPoint:  0.5,
		FaultPipeline:    8,
	}
}
