package faas

import (
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// StartKind labels how a request found its container.
type StartKind int

const (
	// ColdStart launched a fresh container (runtime + init on the critical
	// path).
	ColdStart StartKind = iota
	// WarmStart reused an idle container with its hot set local.
	WarmStart
	// SemiWarmStart reused a container that was in its semi-warm period
	// (some hot pages remote, recalled on access).
	SemiWarmStart
)

// String implements fmt.Stringer.
func (k StartKind) String() string {
	switch k {
	case ColdStart:
		return "cold"
	case WarmStart:
		return "warm"
	case SemiWarmStart:
		return "semi-warm"
	default:
		return "unknown"
	}
}

// RequestRecord traces one request end to end.
type RequestRecord struct {
	// Function and Container identify where the request ran.
	Function  string `json:"function"`
	Container string `json:"container"`
	// Kind is the start path.
	Kind StartKind `json:"kind"`
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
