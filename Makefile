# FaaSMem reproduction — common targets.

GO ?= go

.PHONY: all build test vet bench bench-json bench-check cover fuzz-smoke experiments experiments-quick determinism examples trace-demo attrib-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Tier-1 figure/table benchmarks plus the page-engine and event-engine
# micro-benches, snapshotted as machine-readable JSON (the CI perf artifact;
# see cmd/benchjson). One run feeds three artifacts: the raw log
# (bench_gate.txt, which records allocs/op for the regression gate), the JSON
# snapshot, and a per-bench speedup table against the latest committed
# BENCH_*.json printed to stderr. With BENCH_OUT unset the snapshot goes to
# the next free number (BENCH_4.json → BENCH_5.json), so committed snapshots
# are never overwritten; CI sets BENCH_OUT=BENCH_CI.json.
#
# The seeded benches run iteration i at Seed i, so their allocs/op is a mean
# over seeds 0..b.N-1; they run a fixed number of iterations so that mean,
# and the gate reading it, cannot move with machine load: 10 for the
# scenario-sized ones, 1000 for the two sub-millisecond scans. The other
# benches repeat one identical workload and keep time-based b.N.
BENCH_SEEDED = Fig2DamonLatency|Fig8RuntimeRecalls|Fig12AzureHighLoad|Fig12AzureLowLoad|Table1DiverseTraces|Fig13Ablation|Fig14SemiWarmApplicability|Fig16Density|PoolDensity|DAGPipeline
BENCH_SEEDED_SMALL = Fig6BertScan|Fig9WebScan
BENCH_TIMED = Fig1KeepAliveSweep|Fig4RuntimeFootprint|Fig5RequestsPerContainer|Fig15BarrierInsert|Fig15Rollback|Fig15Overhead|BarrierInsert|PucketOffloadScan|HarnessParallelFanout|DisabledSpans|DisabledTimeline|DisabledExemplars|MemnodeOffload|MergeLookup|EngineSchedule|EngineTimerWheel|SharedRegionMap
bench-json:
	{ $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_SEEDED))$$' -benchtime=10x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_SEEDED_SMALL))$$' -benchtime=1000x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_TIMED))$$' -benchmem . ; } 2>&1 | tee bench_gate.txt | $(GO) run ./cmd/benchjson -baseline BENCH_BASELINE.json -latest 'BENCH_*.json' -allocs-gate 10 $(if $(BENCH_OUT),-o $(BENCH_OUT))
	@echo "raw log with allocs/op: bench_gate.txt"

# The end-to-end benchmark (bench/, see BENCHMARK.json) is a nested module
# that `go build ./...` and `go test ./...` skip; vet and test it so an
# internal API change cannot break it unseen.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Total statement coverage, gated against the committed baseline floor
# (COVERAGE_BASELINE.txt, the seed repo's coverage; CI runs this target).
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	floor=$$(cat COVERAGE_BASELINE.txt); \
	echo "total statement coverage: $$total% (baseline floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f) }' || { echo "below baseline"; exit 1; }

# 30s of native fuzzing per target — the same smoke CI runs. Corpus seeds
# live under each package's testdata/fuzz/ and replay in plain `go test`.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzEngineVsReference$$' -fuzztime=$(FUZZTIME) ./internal/simtime
	$(GO) test -run='^$$' -fuzz='^FuzzDifferentialOps$$'  -fuzztime=$(FUZZTIME) ./internal/mglru
	$(GO) test -run='^$$' -fuzz='^FuzzSpaceDifferential$$' -fuzztime=$(FUZZTIME) ./internal/pagemem
	$(GO) test -run='^$$' -fuzz='^FuzzPlan$$'              -fuzztime=$(FUZZTIME) ./internal/faultinject
	$(GO) test -run='^$$' -fuzz='^FuzzReadAzureCSV$$'      -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadTraceJSON$$'     -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadProfiles$$'      -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzWorkflowDAG$$'       -fuzztime=$(FUZZTIME) ./internal/faas
	$(GO) test -run='^$$' -fuzz='^FuzzMergeDomains$$'      -fuzztime=$(FUZZTIME) ./internal/memnode

# Regenerate every figure/table at paper scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -seed 42 | tee experiments_full.txt

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Rows must be byte-identical at any scenario fan-out width. The experiment
# list comes from the registry (-list); wall-clock entries (fig15) are
# skipped because their rows are measured host times. A second pass runs
# fig13 with every sink on (trace, timeline, exemplars, attribution) and
# diffs all four outputs across the same widths; each width writes the same
# paths, which are renamed afterwards, so the attribution output's trace
# line matches too.
determinism:
	@figs=$$($(GO) run ./cmd/experiments -list | awk 'NF == 1' | paste -sd, -) && \
	$(GO) run ./cmd/experiments -quick -seed 42 -only "$$figs" -scenario-workers 1 > rows_w1.txt && \
	$(GO) run ./cmd/experiments -quick -seed 42 -only "$$figs" -scenario-workers 8 > rows_w8.txt && \
	diff rows_w1.txt rows_w8.txt && echo "determinism: rows identical at widths 1 and 8 ($$figs)"
	@for w in 1 8; do \
		$(GO) run ./cmd/experiments -quick -seed 42 -only fig13 -scenario-workers $$w \
			-trace-out fig13_trace.json -timeline fig13_timeline.txt -exemplars fig13_exemplars.txt \
			-attrib > fig13_attrib.txt || exit 1; \
		for f in trace.json timeline.txt exemplars.txt attrib.txt; do mv fig13_$$f fig13_w$${w}_$$f; done; \
	done && \
	for f in trace.json timeline.txt exemplars.txt attrib.txt; do diff fig13_w1_$$f fig13_w8_$$f || exit 1; done && \
	echo "determinism: fig13 trace, timeline, exemplars and attribution identical at widths 1 and 8"

# Figures + machine-readable rows.
results:
	$(GO) run ./cmd/experiments -seed 42 -json results -svg results

# Record a 3-function run and export a Perfetto-loadable trace.
trace-demo:
	$(GO) run ./examples/tracing faasmem-trace.json

# Side-by-side latency attribution under relaxed vs. pressured memory, plus
# an exported span file for cmd/faasmem-stat.
attrib-demo:
	$(GO) run ./examples/attribution faasmem-spans.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mlinference
	$(GO) run ./examples/webservice
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/rack
	$(GO) run ./examples/sweep > /dev/null
	$(GO) run ./examples/attribution

clean:
	rm -rf results test_output.txt bench_output.txt coverage.out faasmem-trace.json faasmem-spans.json attrib_quick.txt timeline_quick.txt rows_w1.txt rows_w8.txt fig13_w*_*
