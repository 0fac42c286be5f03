GO ?= go

# The benchmark workload behind make bench / bench-check: fixed experiment,
# scale and seed so successive runs are comparable.
BENCH_ARGS ?= -exp fig3 -scale 0.25 -reps 3 -seed 1
BENCH_THRESHOLD ?= 1.25

.PHONY: build test fmt-check verify verify2 bench bench-check bench-check-report bench-go bench-smoke bench-workers bench-workers-smoke bench-plans-smoke bundle-smoke trace-smoke sched-smoke fuzz-smoke perfbench-smoke ci

build:
	$(GO) build ./...

# Failing test binaries leave post-mortem debug bundles here (one directory
# per test binary, via flight.DumpOnTestFailure); CI uploads the tree.
TEST_BUNDLE_DIR ?= test-failure-bundles

test:
	rm -rf $(TEST_BUNDLE_DIR)
	KBREPAIR_TEST_BUNDLE=$(abspath $(TEST_BUNDLE_DIR)) $(GO) test ./...

# fmt-check fails, listing the files, when any Go file in the repository
# is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Tier-1 verify: the gate every change must pass.
verify: build test

# Tier-2 verify: static analysis plus race-enabled tests. Slower; run
# before merging anything that touches shared state or internal/obs.
verify2:
	$(GO) vet ./...
	$(GO) test -race ./...

# bench writes the machine-readable perf baseline (environment stamp,
# metrics snapshot, five-number latency summaries) to BENCH.json.
bench:
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH.json

BENCH.json:
	$(MAKE) bench

# bench-check re-runs the same workload and fails (non-zero exit) if any
# latency metric's mean — or any rule body's total backtrack-node count
# (the paper's tree-size cost model, from the report's profile section) —
# regressed beyond BENCH_THRESHOLD x the baseline.
bench-check: BENCH.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH_new.json -baseline BENCH.json -threshold $(BENCH_THRESHOLD)

# bench-check-report is the CI-friendly report-only variant: prints the
# comparison but always exits zero (machines differ across runners).
bench-check-report: BENCH.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH_new.json -baseline BENCH.json -threshold $(BENCH_THRESHOLD) -regress-ok

# bench-go runs the Go micro-benchmarks (allocation guards and hot-path
# timings) — complementary to the kbbench workload baseline.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs each homo/flight/attr benchmark exactly
# once — a fast CI check that the benchmark suite (the allocation guards
# included) still builds and executes, without timing anything.
bench-smoke:
	$(GO) test -bench 'Homo|Flight|Attr|Sched' -benchtime=1x ./internal/...

# bench-workers runs the same workload at -workers 1 and -workers 4 and
# compares the two reports: the evidence for the README worker-pool table
# (regenerates results/bench_workers{1,4}.json). Only conflict detection
# fans out, so its metrics are the ones that respond to -workers. The
# -baseline leg uses -regress-ok because the point is the printed
# comparison, not a gate.
bench-workers:
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -workers 1 -json results/bench_workers1.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -workers 4 -json results/bench_workers4.json \
		-baseline results/bench_workers1.json -threshold 1.0 -regress-ok

# bench-workers-smoke is the CI variant: a scaled-down workload at both
# worker counts, discarding the reports — it proves the multi-worker bench
# path (the parallel conflict scan + the report comparison) still runs end
# to end, without pretending a shared runner can time it.
bench-workers-smoke:
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 1 -json results/bench_workers_smoke1.json
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 4 -json results/bench_workers_smoke4.json \
		-baseline results/bench_workers_smoke1.json -threshold 1.0 -regress-ok
	rm -f results/bench_workers_smoke1.json results/bench_workers_smoke4.json

# bench-plans-smoke is the plan-quality gate: -plans-check makes kbbench
# fail when any profiled body ran without a compiled-plan annotation in the
# plan registry. The grep then asserts the mode annotations actually reached
# the report.
bench-plans-smoke:
	rm -rf smoke-plans && mkdir -p smoke-plans
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 \
		-json smoke-plans/bench.json -plans-check
	grep -q '"mode"' smoke-plans/bench.json

# bundle-smoke exercises the post-mortem pipeline end to end: generate a
# KB, repair it with an exit debug bundle and a recorded journal, then
# validate that the bundle parses and renders with kbdump (including the
# journal header and KB digest sections).
bundle-smoke:
	rm -rf smoke-bundle && mkdir -p smoke-bundle
	$(GO) run ./cmd/kbgen -facts 120 -ratio 0.2 -cdds 5 -seed 1 -quiet -out smoke-bundle/smoke.kb
	$(GO) run ./cmd/kbrepair -kb smoke-bundle/smoke.kb -auto -seed 1 \
		-journal smoke-bundle/journal.json -debug-bundle smoke-bundle/bundle
	$(GO) run ./cmd/kbdump -metrics smoke-bundle/bundle

# trace-smoke exercises the causal-tracing pipeline end to end: generate a
# KB, repair it with -trace, then require kbtrace to produce a non-empty
# waterfall (it exits non-zero when the trace has no question spans) and a
# self-validated Chrome trace_event export.
trace-smoke:
	rm -rf smoke-trace && mkdir -p smoke-trace
	$(GO) run ./cmd/kbgen -facts 120 -ratio 0.2 -cdds 5 -seed 1 -quiet -out smoke-trace/smoke.kb
	$(GO) run ./cmd/kbrepair -kb smoke-trace/smoke.kb -auto -seed 1 -trace smoke-trace/run.trace
	$(GO) run ./cmd/kbtrace -waterfall smoke-trace/run.trace
	$(GO) run ./cmd/kbtrace -critical-path -chrome smoke-trace/chrome.json smoke-trace/run.trace

# sched-smoke exercises the parallel-efficiency pipeline end to end at two
# worker counts: -efficiency-check makes kbbench fail unless the lane books
# balance (no open/aborted fan-outs), every utilization and fraction lands
# in [0,1] and parallel + serial time sums back to the measured wall time;
# the grep then asserts the efficiency section actually reached BENCH.json.
# A -sched snapshot from kbrepair is fed back through kbtrace to cover the
# snapshot-file path too.
sched-smoke:
	rm -rf smoke-sched && mkdir -p smoke-sched
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 1 \
		-json smoke-sched/bench1.json -efficiency-check
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 4 \
		-json smoke-sched/bench4.json -efficiency-check
	grep -q '"efficiency"' smoke-sched/bench1.json
	grep -q '"efficiency"' smoke-sched/bench4.json
	$(GO) run ./cmd/kbgen -facts 120 -ratio 0.2 -cdds 5 -seed 1 -quiet -out smoke-sched/smoke.kb
	$(GO) run ./cmd/kbrepair -kb smoke-sched/smoke.kb -auto -seed 1 -workers 4 \
		-trace smoke-sched/run.trace -sched smoke-sched/sched.json
	$(GO) run ./cmd/kbtrace -sched smoke-sched/sched.json -chrome smoke-sched/chrome.json smoke-sched/run.trace

# fuzz-smoke runs the parser's fuzz target for a few seconds beyond its seed
# corpus (which plain go test already replays): FuzzParse is the repo's only
# fuzz target, and malformed KB text must yield an error, never a panic.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/parser

# perfbench-smoke builds the repair-session benchmark (perfbench/, its own
# module), runs its unit tests, then runs each workload for two seconds in
# traced mode, which checks every session: the repaired KB is consistent,
# the applied fixes form a c-fix, and each traced repair equals its
# untraced twin. A change that breaks a workload fails here, not first in
# a benchmark run.
perfbench-smoke:
	cd perfbench && $(GO) test .
	for w in cdd-large durum-random tgd-interactive; do \
		bash perfbench/run.sh --workload $$w --seconds 2 --trace 1 || exit 1; \
	done

# ci is the whole gate in one target, mirroring .github/workflows/ci.yml
# for environments without Actions.
ci: fmt-check verify verify2 bench-smoke bench-check-report bench-plans-smoke bundle-smoke trace-smoke sched-smoke fuzz-smoke perfbench-smoke
