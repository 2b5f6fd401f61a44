// Package faasmem is a from-scratch Go reproduction of "FaaSMem: Improving
// Memory Efficiency of Serverless Computing with Memory Pool Architecture"
// (Xu et al., ASPLOS 2024).
//
// The repository contains a discrete-event serverless-platform simulator
// with a page-granularity memory model (internal/faas, internal/pagemem,
// internal/rmem, internal/cgroup for the node ledger and PSI), the
// paper's FaaSMem policy (internal/core), the TMO and region-based DAMON
// baselines (internal/policy), an Azure-like trace generator with real-CSV
// import (internal/trace), the 11 benchmark workload profiles
// (internal/workload), a multi-node rack composition (internal/cluster), an
// HTTP control plane (internal/gateway, cmd/faasmem-gateway), reporting
// primitives (internal/report, internal/metrics), and a harness reproducing
// every table and figure of the paper's evaluation plus six extension
// studies (internal/experiments, cmd/experiments).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root package itself holds only documentation and the benchmark
// harness (bench_test.go).
package faasmem
