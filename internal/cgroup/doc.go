// Package cgroup models the memory cgroup the paper reads container
// footprints from (§3.3): the node's root memory ledger of local and remote
// bytes over virtual time, and the per-container PSI (pressure-stall
// information) TMO's feedback loop reads. A container's own local and
// remote bytes are not booked here; they derive from its page Space.
package cgroup
