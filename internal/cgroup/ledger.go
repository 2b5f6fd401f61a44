package cgroup

import (
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/simtime"
)

// Ledger is a node's root memory cgroup: the bytes its live containers hold
// in local DRAM and in the remote pool, each as a series over virtual time,
// so the evaluation can report time-weighted averages and peaks (paper §3.3,
// Fig 12, Table 1). Containers keep no ledger of their own; their residency
// derives from their page Space.
type Ledger struct {
	local, remote *metrics.TimeWeighted
}

// NewLedger starts a ledger at now with zero residency.
func NewLedger(now simtime.Time) Ledger {
	return Ledger{
		local:  metrics.NewTimeWeighted(now, 0),
		remote: metrics.NewTimeWeighted(now, 0),
	}
}

// Apply records one residency change at now. local is the change in local
// bytes. remote, when given, is the change in remote bytes; a charge or
// uncharge omits it and leaves the remote series untouched, so its
// time-weighted integral is not split.
func (l *Ledger) Apply(now simtime.Time, local int64, remote ...int64) {
	l.local.Add(now, float64(local))
	if len(remote) > 0 {
		l.remote.Add(now, float64(remote[0]))
	}
}

// LocalBytes returns current local residency.
func (l *Ledger) LocalBytes() int64 { return int64(l.local.Current()) }

// RemoteBytes returns current remote residency.
func (l *Ledger) RemoteBytes() int64 { return int64(l.remote.Current()) }

// AvgLocalBytes returns the time-weighted average local residency from the
// ledger's start up to now.
func (l *Ledger) AvgLocalBytes(now simtime.Time) float64 { return l.local.Average(now) }

// AvgRemoteBytes returns the time-weighted average remote residency.
func (l *Ledger) AvgRemoteBytes(now simtime.Time) float64 { return l.remote.Average(now) }

// PeakLocalBytes returns the maximum local residency observed.
func (l *Ledger) PeakLocalBytes() int64 { return int64(l.local.Peak()) }
