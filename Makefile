GO ?= go

.PHONY: check fmt lint test vet race race-harness perf perf-quick perf-update digests loc bench-engine bench-serve bench-cluster

# check is the pre-merge gate, in order: gofmt, the determinism analyzers
# (pagodavet), go vet, the full test suite, race detection across the
# internal tree, the quick tier of the perf-regression gate (pagodaperf
# against the BENCH_*.json baselines) and the benchmark's output digests.
# fmt and lint run first so an unformatted file, a wall-clock read or a stray
# goroutine fails the build before anything expensive starts.
check: fmt lint vet test race perf-quick digests

# fmt fails when any Go file in the tree (simbench included) is not
# gofmt-clean, and lists the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the project's determinism & sim-safety analyzers: the per-file
# checks plus the interprocedural taintflow pass (call-graph taint tracking
# from nondeterminism sources into sim-time sinks) and floatorder
# (order-unstable float accumulation). Any unsuppressed finding (e.g. a
# time.Now laundered through helper functions into Engine.Schedule) exits
# nonzero and fails the gate; intentional exceptions are annotated in the
# source with //pagoda:allow <check> <reason>, and a suppression that
# suppresses nothing is itself a finding. `pagodavet -json` emits the same
# findings machine-readably for CI annotation.
lint:
	$(GO) run ./cmd/pagodavet ./...

# vet also covers the nested simbench module, which root ./... skips: an API
# change in internal/ that breaks the benchmark driver fails here.
vet:
	$(GO) vet ./...
	cd simbench && $(GO) vet ./...

test:
	$(GO) test ./...

# race covers the whole internal tree, including the parallel experiment
# sweep (harness's TestAllExperimentsDeterministicAndParallelSafe runs every
# experiment on a 4-wide cell pool under the race detector). The explicit
# timeout keeps the harness package — >10 minutes under the race detector on
# a small box — from tripping go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./internal/...

# race-harness is the focused version of the above for quick iteration on
# the cell scheduler.
race-harness:
	$(GO) test -race -run 'TestAllExperimentsDeterministicAndParallelSafe' ./internal/harness/

# perf is the machine-verified performance-regression gate (cmd/pagodaperf):
# it re-runs every bench command recorded in BENCH_{sim,serve,cluster}.json,
# extracts the declared metrics, and fails on drift past each tolerance band.
# perf-quick runs only the metrics marked quick (the hot-path micro
# benchmarks) and is part of `make check`; the full set re-runs the
# experiment sweeps and takes minutes. perf-update re-measures everything and
# ratchets the baselines with host/date/git-rev provenance — run it (on a
# quiet machine) after an intentional perf change, and commit the diff.
perf:
	$(GO) run ./cmd/pagodaperf

perf-quick:
	$(GO) run ./cmd/pagodaperf -quick

perf-update:
	$(GO) run ./cmd/pagodaperf -update

# digests runs the benchmark's three workloads for one second each at seed
# 1, where simbench/digests.json pins every simulated output, and fails
# unless each run reports "failed":0. run.sh exits 0 even when outputs miss
# their digests, so the target reads the report instead of the exit code.
digests:
	@for w in batch tenants fleet; do \
		out="$$(bash simbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0)" || exit 1; \
		case "$$out" in *'"failed":0,'*) echo "digests: $$w ok" ;; \
		*) echo "digests: $$w failed its checks: $$out"; exit 1 ;; esac; \
	done

# loc prints the Go line counts ROADMAP tracks: non-test and test lines,
# leaving out the benchmark driver (simbench/) and its build directory.
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' -not -name '*_test.go' -not -path './simbench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "test Go lines: $$(find . -name '*_test.go' -not -path './simbench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"

bench-engine:
	$(GO) test -bench=BenchmarkEngine -benchtime=1x -run='^$$' ./internal/sim/ .

# bench-serve covers the open-loop serving hot paths: arrival generation and
# percentile assembly (internal/serve) plus one timed-submission run per GPU
# scheme (internal/runners). BENCH_serve.json records the capacity-sweep
# wall-clock trajectory.
bench-serve:
	$(GO) test -bench='BenchmarkArrivals|BenchmarkSummarize' -benchmem -run='^$$' ./internal/serve/
	$(GO) test -bench=BenchmarkOpenLoop -benchtime=1x -run='^$$' ./internal/runners/

# bench-cluster covers the multi-GPU fleet path: one 4-node timed-submission
# run per scheme on a single engine (internal/runners). BENCH_cluster.json
# records the cluster_scaling sweep's wall clock and headline capacity.
# internal/cluster itself rides the standard gate: lint, test and race all
# glob ./internal/..., so `make check` covers it with no extra target.
bench-cluster:
	$(GO) test -bench=BenchmarkCluster -benchtime=1x -run='^$$' ./internal/runners/
