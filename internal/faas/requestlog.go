package faas

import (
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/span"
)

// RequestRecord traces one request end to end.
type RequestRecord struct {
	// Function and Container identify where the request ran.
	Function  string `json:"function"`
	Container string `json:"container"`
	// Kind is the start path.
	Kind span.StartKind `json:"kind"`
	// Arrival and Start are virtual times; Start excludes cold-start work.
	Arrival simtime.Time `json:"arrival"`
	Start   simtime.Time `json:"start"`
	// Latency is end-to-end (arrival → completion); ExecLatency is
	// start → completion.
	Latency     time.Duration `json:"latency"`
	ExecLatency time.Duration `json:"exec_latency"`
	// FaultPages counts remote pages demand-faulted during execution.
	FaultPages int `json:"fault_pages"`
	// StallTime is the latency share spent waiting on remote memory.
	StallTime time.Duration `json:"stall_time"`
}
