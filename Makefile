# Development targets. `make check` mirrors the CI gate.

GO ?= go

.PHONY: check fmt vet build test race retry-race fuzz-smoke chaos chaos-proc \
	proc-smoke bench bench-json bench-hotpath bench-compare bench-harness \
	cover-serve cover-delta delta-soak soak-scale lint loc

check: fmt vet race fuzz-smoke chaos proc-smoke chaos-proc \
	cover-serve cover-delta delta-soak bench-harness

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

# The second leg runs the range-split CSV render and the striped CSV load —
# the code whose goroutine count follows GOMAXPROCS — at three widths.
race:
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/cube ./internal/relation .

# The fault-injection/retry gate: every fault and differential-oracle
# test, twice, under the race detector.
retry-race:
	$(GO) test -race -count=2 -run 'Fault|Differential' ./...

# Short fuzz of the cube-equivalence oracle (relation shape x fault
# coordinate vs brute force), the delta-maintenance oracle (batch
# composition x aggregate x rebuild threshold vs recompute), the spill
# plane's two wire formats: the front-coded record codec and the
# checksummed block framing (round-trip plus corrupt-input rejection), and
# the reducers' output records (arbitrary file bytes: the sorted run fails
# when the map collector fails and otherwise equals it, iterated and read
# through cursors, a segment per file and merged, and renders to the bytes
# encoding/csv makes of it in ranges of any size), and the input
# dictionary (arbitrary column values: codes, order and decoded text equal a
# plain string map's, whichever of its two entry kinds a value takes, and
# the same values as a CSV file load as a serial read loads them), and
# the server's two request decoders (arbitrary /v1/query and /v1/ingest
# bodies: a well-formed answer or a 4xx, never a panic or a 5xx).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzCubeEquivalence -fuzztime=10s ./internal/integration
	$(GO) test -run=NONE -fuzz=FuzzDeltaEquivalence -fuzztime=10s ./internal/integration
	$(GO) test -run=NONE -fuzz=FuzzKeyCodec -fuzztime=10s ./internal/mr
	$(GO) test -run=NONE -fuzz=FuzzBlockCodec -fuzztime=10s ./internal/mr/blockcodec
	$(GO) test -run=NONE -fuzz=FuzzOutputRecords -fuzztime=10s ./internal/cube
	$(GO) test -run=NONE -fuzz=FuzzDictionaryRoundTrip -fuzztime=10s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzQueryRequest -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzIngestRequest -fuzztime=10s ./cmd/spserve

# Randomized fault-plan soak: deterministically generated multi-fault plans
# (every task-fault kind, whole-node crashes, speculation, task timeouts)
# differentially validated against the brute-force cube.
chaos:
	$(GO) test -count=1 -run TestChaosRandomFaultPlans ./internal/integration

# Execution-backend equivalence gate: every algorithm x fault plan on the
# proc backend — real worker processes, node crashes delivered as real
# SIGKILLs — must produce byte-identical output and volatile-stripped
# metrics vs the local backend, plus the differential oracle check and the
# cancellation/reap contract.
proc-smoke:
	$(GO) test -count=1 -run 'TestBackendDeterminismProc|TestBackendDifferentialProc|TestContextCancelProc' ./internal/mr/exec

# Randomized kill soak for the proc backend: SIGKILL worker processes at
# random moments mid-run; every run must either recover to the exact
# brute-force cube or fail plainly, leaking no processes or socket dirs.
chaos-proc:
	$(GO) test -count=1 -run TestChaosProcKillSoak ./internal/mr/exec

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end benchmark harness (benchmark/, the program BENCHMARK.json
# runs) is its own module, so `./...` above never builds it: vet and test it
# against this tree, so that drift in the internal packages it imports
# fails here rather than when the benchmark is next run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Machine-readable benchmark artifact: the fig6 sweep plus every run's full
# per-round metrics as a versioned JSON document, then self-validated.
bench-json:
	$(GO) run ./cmd/spbench -exp fig6 -scale 0.05 -metrics-out BENCH_fig6.json > /dev/null
	$(GO) run ./cmd/spbench -validate BENCH_fig6.json

# Randomized incremental-maintenance soak: chaos-faulted delta cycles with
# appends and deletes feeding the serving store through patch + swap, each
# cycle verified exactly against brute force; failing cycles must leave the
# served cube untouched.
SOAK_CYCLES ?= 40
delta-soak:
	SPCUBE_SOAK_CYCLES=$(SOAK_CYCLES) $(GO) test -count=1 -run TestDeltaSoak ./internal/integration

# Out-of-core scale soak: a 10M-row uniform relation through sp-cube with an
# 8 MiB spill budget inside a GOMEMLIMIT-bounded process. The test asserts
# the budget fired, peak runtime memory stayed within 1.25x the limit, a
# subsampled prefix is byte-identical spilled vs. in memory, and no run
# files leak.
SOAK_SCALE_ROWS ?= 10000000
SOAK_SCALE_MEMLIMIT ?= 3GiB
soak-scale:
	SPCUBE_SOAK_SCALE=1 SPCUBE_SOAK_SCALE_ROWS=$(SOAK_SCALE_ROWS) \
		GOMEMLIMIT=$(SOAK_SCALE_MEMLIMIT) \
		$(GO) test -count=1 -timeout 45m -run TestSoakScale -v ./internal/integration

# Hot-path micro-benchmarks of the MR engine's data plane (shuffle merge,
# partitioner, combiner, end-to-end naive cube). BENCH_COUNT runs each;
# `make bench-compare` sets them against another commit.
BENCH_COUNT ?= 6
BENCH_PATTERN ?= EngineHotPath|HashPartition|ShuffleMerge|Combine
bench-hotpath:
	$(GO) test -run=NONE -bench='$(BENCH_PATTERN)' -count=$(BENCH_COUNT) ./internal/mr/

# Coverage gate for the serving layer: its concurrency machinery (cache,
# batcher, HTTP front end) must stay above 80% statement coverage.
COVER_SERVE_MIN ?= 80.0
cover-serve:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -count=1 -coverprofile="$$tmp/serve.out" ./internal/serve/; \
	pct=$$($(GO) tool cover -func="$$tmp/serve.out" | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/serve coverage: $$pct% (minimum $(COVER_SERVE_MIN)%)"; \
	awk -v got="$$pct" -v min="$(COVER_SERVE_MIN)" \
		'BEGIN { if (got + 0 < min + 0) { exit 1 } }' \
		|| { echo "internal/serve coverage $$pct% is below $(COVER_SERVE_MIN)%" >&2; exit 1; }

# Coverage gate for the maintenance layer: the delta/rebuild decision logic
# and merge paths must stay above 80% statement coverage.
COVER_DELTA_MIN ?= 80.0
cover-delta:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -count=1 -coverprofile="$$tmp/delta.out" ./internal/delta/; \
	pct=$$($(GO) tool cover -func="$$tmp/delta.out" | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/delta coverage: $$pct% (minimum $(COVER_DELTA_MIN)%)"; \
	awk -v got="$$pct" -v min="$(COVER_DELTA_MIN)" \
		'BEGIN { if (got + 0 < min + 0) { exit 1 } }' \
		|| { echo "internal/delta coverage $$pct% is below $(COVER_DELTA_MIN)%" >&2; exit 1; }

# Static analysis and known-vulnerability scan, pinned so CI and local runs
# agree. Both tools are fetched by `go run`, so the first run needs network.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The one way to count code: non-blank, non-comment Go lines outside
# _test.go and benchmark/, per package and in total — the number a
# simplicity change quotes before and after.
loc:
	@count() { xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'; }; \
	for dir in $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -exec dirname {} + | sort -u); do \
		printf '%6d  %s\n' "$$(find "$$dir" -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 | count)" "$$dir"; \
	done; \
	printf '%6d  total\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | count)"

# Old-vs-new comparison of the engine's hot path, of the serving index, of
# two batch runs (compute + collect + CSV render of the uniform cube; CSV load
# + compute of the skewed, spilling one) and their two ends alone (that render;
# that load), of a server's start-up build and ingest cycle (delta.New over
# the three served relations and under sum;
# Maintainer.Apply of harness-sized batches) and of the whole of start-up
# behind the CSV load (relation -> delta.New -> served Store). Checks out BASE
# (default: the previous commit) into a temporary git worktree, copies the
# five portable public-API benchmark files in (so old trees predating them
# still run the identical workload), benchmarks both trees, and renders one
# comparison per package with benchstat when installed, falling back to the
# in-repo cmd/benchcmp. In-package benchmarks (ShuffleMerge, Combine) may not
# exist in the old tree and then appear as new-only rows.
BASE ?= HEAD~1
SERVE_BENCH_PATTERN ?= StoreBuild|StorePoint|ApplyPatch
bench-compare:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE) >/dev/null; \
	for spec in 'internal/mr hotpath_bench_test.go $(BENCH_PATTERN)' \
		'internal/serve index_bench_test.go $(SERVE_BENCH_PATTERN)' \
		'. collect_bench_test.go WriteCSV|ReadCSV|SkewedBatch' \
		'internal/delta new_bench_test.go DeltaNew|DeltaApply' \
		'internal/cli ready_bench_test.go ServeReady'; do \
		set -- $$spec; pkg=$$1; file=$$2; pattern=$$3; \
		mkdir -p "$$tmp/base/$$pkg"; \
		cp "$$pkg/$$file" "$$tmp/base/$$pkg/$$file"; \
		echo "benchmarking base ($(BASE)): $$pkg..."; \
		(cd "$$tmp/base" && $(GO) test -run=NONE -bench="$$pattern" -count=$(BENCH_COUNT) "./$$pkg/") > "$$tmp/old.txt"; \
		echo "benchmarking working tree: $$pkg..."; \
		$(GO) test -run=NONE -bench="$$pattern" -count=$(BENCH_COUNT) "./$$pkg/" > "$$tmp/new.txt"; \
		if command -v benchstat >/dev/null 2>&1; then \
			benchstat "$$tmp/old.txt" "$$tmp/new.txt"; \
		else \
			$(GO) run ./cmd/benchcmp "$$tmp/old.txt" "$$tmp/new.txt"; \
		fi; \
	done
