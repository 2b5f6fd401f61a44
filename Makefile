# FaaSMem reproduction — common targets.

GO ?= go

.PHONY: all build test vet loc bench bench-json bench-ab bench-check cover fuzz-smoke experiments determinism examples trace-demo attrib-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Non-test Go lines outside bench/: the total, then each internal/* and
# cmd/* directory (subpackages included). Line budgets quote these figures.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' -exec cat {} + | wc -l | awk '{ print "total (non-test, outside bench/): " $$1 }'
	@for d in internal/* cmd/*; do \
		printf '%7d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Tier-1 figure/table benchmarks plus the page-engine and event-engine
# micro-benches, the fault pre-count (FaultPrecount), one cold start
# (ContainerLaunch) and one warm request on a warm container
# (ContainerRequest, whose allocs/op is 0), all three in internal/faas
# beside the unexported code they time, and the run list's worst case
# (FragmentedSpace, in internal/pagemem), snapshotted as machine-readable JSON (the CI perf artifact;
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
BENCH_TIMED = Fig1KeepAliveSweep|Fig4RuntimeFootprint|Fig5RequestsPerContainer|Fig15BarrierInsert|Fig15Rollback|Fig15Overhead|PucketOffloadScan|SemiWarmScan|SeedReuseIntervals|FaultPrecount|ContainerLaunch|ContainerRequest|HarnessParallelFanout|DisabledSpans|DisabledTimeline|DisabledExemplars|MemnodeOffload|MergeLookup|EngineSchedule|EngineTimerWheel|SharedRegionMap|FragmentedSpace
bench-json:
	{ $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_SEEDED))$$' -benchtime=10x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_SEEDED_SMALL))$$' -benchtime=1000x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_TIMED))$$' -benchmem . ./internal/faas ./internal/pagemem ; } 2>&1 | tee bench_gate.txt | $(GO) run ./cmd/benchjson -baseline BENCH_BASELINE.json -latest 'BENCH_*.json' -allocs-gate 10 $(if $(BENCH_OUT),-o $(BENCH_OUT))
	@echo "raw log with allocs/op: bench_gate.txt"

# Side-by-side ns/op comparison of two trees: the test binaries of the
# BENCH_AB_PKGS packages (the root; internal/faas, which owns
# FaultPrecount, ContainerLaunch and ContainerRequest; and internal/pagemem,
# which owns FragmentedSpace) are built from BASE
# (a git revision, exported with git archive under a temporary directory)
# and from the working tree, and the two sides run the BENCH_AB benchmarks
# (default: the BENCH_TIMED list) alternately COUNT times, the side that
# goes first alternating too; each binary runs in its package directory,
# as go test would run it. cmd/benchjson -ab prints each benchmark's median
# ns/op, quartiles and paired wins. Committed ns/op snapshots taken at
# different times on a shared host are not comparable; alternating runs on
# one host are. It gates nothing.
#
#   make bench-ab BASE=HEAD~1 COUNT=10 BENCH_AB='PucketOffloadScan|ContainerLaunch'
COUNT ?= 10
BENCH_AB ?= $(BENCH_TIMED)
BENCH_AB_PKGS = . internal/faas internal/pagemem
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [COUNT=10] [BENCH_AB='A|B']"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
	n=0 && for pkg in $(BENCH_AB_PKGS); do \
		n=$$((n + 1)); \
		(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base$$n.test" ./$$pkg) && \
		$(GO) test -c -o "$$tmp/new$$n.test" ./$$pkg || exit 1; \
	done && \
	for i in $$(seq $(COUNT)); do \
		order="base new"; [ $$((i % 2)) -eq 0 ] && order="new base"; \
		for side in $$order; do \
			tree="$$tmp/base"; [ $$side = new ] && tree="$(CURDIR)"; \
			n=0 && for pkg in $(BENCH_AB_PKGS); do \
				n=$$((n + 1)); \
				(cd "$$tree/$$pkg" && "$$tmp/$$side$$n.test" -test.run='^$$' -test.bench='^Benchmark($(BENCH_AB))$$' -test.benchmem) >> "$$tmp/$$side.log" || exit 1; \
			done; \
		done; \
	done && \
	$(GO) run ./cmd/benchjson -ab "$$tmp/base.log" "$$tmp/new.log"

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
	$(GO) test -run='^$$' -fuzz='^FuzzSamplerVsTicker$$'   -fuzztime=$(FUZZTIME) ./internal/simtime
	$(GO) test -run='^$$' -fuzz='^FuzzSpaceDifferential$$' -fuzztime=$(FUZZTIME) ./internal/pagemem
	$(GO) test -run='^$$' -fuzz='^FuzzPlan$$'              -fuzztime=$(FUZZTIME) ./internal/faultinject
	$(GO) test -run='^$$' -fuzz='^FuzzReadAzureCSV$$'      -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadTraceJSON$$'     -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadProfiles$$'      -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzRunSpec$$'           -fuzztime=$(FUZZTIME) ./internal/experiments
	$(GO) test -run='^$$' -fuzz='^FuzzParseRun$$'          -fuzztime=$(FUZZTIME) ./internal/drilldown
	$(GO) test -run='^$$' -fuzz='^FuzzWorkflowDAG$$'       -fuzztime=$(FUZZTIME) ./internal/faas
	$(GO) test -run='^$$' -fuzz='^FuzzTouchWalk$$'         -fuzztime=$(FUZZTIME) ./internal/faas
	$(GO) test -run='^$$' -fuzz='^FuzzMergeDomains$$'      -fuzztime=$(FUZZTIME) ./internal/memnode
	$(GO) test -run='^$$' -fuzz='^FuzzPoolLedger$$'        -fuzztime=$(FUZZTIME) ./internal/rmem
	$(GO) test -run='^$$' -fuzz='^FuzzRecorderDifferential$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/timeseries
	$(GO) test -run='^$$' -fuzz='^FuzzSourceMatchesMathRand$$' -fuzztime=$(FUZZTIME) ./internal/simtime/lazyrand

# Regenerate every figure/table at paper scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -seed 42 | tee experiments_full.txt

# Rows must be byte-identical at any scenario fan-out width. The experiment
# list comes from the registry (-list); wall-clock entries (fig15) are
# skipped because their rows are measured host times. A second pass runs
# fig13 with every sink on (trace, timeline, exemplars, attribution) and
# diffs all four outputs across the same widths; each width writes the same
# paths, which are renamed afterwards, so the attribution output's trace
# line matches too. A third pass does the same for every entry at once,
# twice at width 8 and once at width 1, so the sinks must fill the same way
# on every run as well as at every width; it asks for 8 concurrent
# experiments, which a sink flag must override.
determinism:
	@figs=$$($(GO) run ./cmd/experiments -list | awk 'NF == 1' | paste -sd, -) && \
	$(GO) run ./cmd/experiments -seed 42 -only "$$figs" -scenario-workers 1 > rows_w1.txt && \
	$(GO) run ./cmd/experiments -seed 42 -only "$$figs" -scenario-workers 8 > rows_w8.txt && \
	diff rows_w1.txt rows_w8.txt && echo "determinism: rows identical at widths 1 and 8 ($$figs)"
	@for w in 1 8; do \
		$(GO) run ./cmd/experiments -seed 42 -only fig13 -scenario-workers $$w \
			-trace-out fig13_trace.json -timeline fig13_timeline.txt -exemplars fig13_exemplars.txt \
			-attrib > fig13_attrib.txt || exit 1; \
		for f in trace.json timeline.txt exemplars.txt attrib.txt; do mv fig13_$$f fig13_w$${w}_$$f; done; \
	done && \
	for f in trace.json timeline.txt exemplars.txt attrib.txt; do diff fig13_w1_$$f fig13_w8_$$f || exit 1; done && \
	echo "determinism: fig13 trace, timeline, exemplars and attribution identical at widths 1 and 8"
	@figs=$$($(GO) run ./cmd/experiments -list | awk 'NF == 1' | paste -sd, -) && \
	for run in w8:8 w8again:8 w1:1; do \
		$(GO) run ./cmd/experiments -seed 42 -only "$$figs" -parallel 8 -scenario-workers $${run#*:} \
			-trace-out all_trace.json -timeline all_timeline.txt -exemplars all_exemplars.txt \
			-attrib > all_attrib.txt || exit 1; \
		for f in trace.json timeline.txt exemplars.txt attrib.txt; do mv all_$$f all_$${run%:*}_$$f; done; \
	done && \
	for f in trace.json timeline.txt exemplars.txt attrib.txt; do \
		diff all_w8_$$f all_w8again_$$f && diff all_w1_$$f all_w8_$$f || exit 1; \
	done && \
	echo "determinism: all-entries trace, timeline, exemplars and attribution identical across runs and at widths 1 and 8"

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
	rm -rf results test_output.txt bench_output.txt coverage.out faasmem-trace.json faasmem-spans.json attrib_quick.txt timeline_quick.txt rows_w1.txt rows_w8.txt fig13_w*_* all_w*_*
