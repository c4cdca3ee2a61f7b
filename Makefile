# Development targets. `make check` runs the CI test job's legs (gofmt, vet,
# race, retry-race, fuzz-smoke, chaos, spill-smoke, delta-soak, bench,
# bench-harness) and the coverage floors. It leaves four CI legs to CI:
# `lint` (it needs the network to fetch its tools), `soak-scale` (10 M rows),
# the bench-json smoke and `bench-compare` (advisory, against a base ref).

GO ?= go

.PHONY: check fmt vet build test race retry-race fuzz-smoke chaos chaos-proc \
	proc-smoke spill-smoke bench bench-json bench-hotpath bench-compare \
	bench-harness cover-serve cover-delta delta-soak soak-scale lint loc

check: fmt vet race retry-race fuzz-smoke chaos spill-smoke cover-serve \
	cover-delta delta-soak bench bench-harness

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
# test, and the seeds of the two equivalence fuzz targets, twice, under the
# race detector.
retry-race:
	$(GO) test -race -count=2 -run 'Fault|Differential|Equivalence' ./...

# Short fuzz of the delta-maintenance oracle (batch composition x aggregate
# x algorithm x parallelism x fault plan vs recompute and twins, and the one
# recompute rule), the spill plane's two wire formats: the front-coded record
# codec, read back across block boundaries of 1 byte to 64 KiB, and the
# checksummed block framing (round-trip plus corrupt-input rejection), and
# the reducers' output records (arbitrary file bytes, read as a value job's
# records or as a counted job's, whose state follows the final: the
# sorted run fails when the map collector fails — a truncated state or a
# non-minimal count as a truncated value does — and otherwise equals it, the
# same (value, count) pairs iterated and the same states iterated and read
# through cursors, a segment per file and merged, and renders to the bytes encoding/csv makes of it in ranges of
# any size), and the input
# dictionary (arbitrary column values: codes, order and decoded text equal a
# plain string map's, whichever of its two entry kinds a value takes, and
# the same values as a CSV file load as a serial read loads them), the CSV
# load (arbitrary file bytes — quotes, CRs, blank and ragged lines, lines
# longer than the buffer — load as a serial encoding/csv read loads them, or
# fail with its error text, at any batch size), the
# group-key codec (round trip, uvarint length, byte order equal to
# ComparePacked order, and only minimal forms decoding), and the server's two
# request decoders (arbitrary /v1/query and /v1/ingest bodies: a
# well-formed answer or a 4xx, never a panic or a 5xx). CI runs this target.
# Every leg caps the minimization of a newly interesting input at 1 s: at
# the default 60 s it can take the rest of a 10 s leg, with no input executed
# meanwhile, and a failure can minimize far longer than the leg. The
# cube-equivalence oracle is fuzzed by `make chaos` alone: from an empty
# fuzz cache its baseline pass over the seed corpus outlasts 10 s, so a
# 10 s leg here executed no mutated input, and plain `go test` replays the
# seeds already.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDeltaEquivalence -fuzztime=10s -fuzzminimizetime=1s ./internal/integration
	$(GO) test -run=NONE -fuzz=FuzzKeyCodec -fuzztime=10s -fuzzminimizetime=1s ./internal/mr
	$(GO) test -run=NONE -fuzz=FuzzBlockCodec -fuzztime=10s -fuzzminimizetime=1s ./internal/mr/blockcodec
	$(GO) test -run=NONE -fuzz=FuzzOutputRecords -fuzztime=10s -fuzzminimizetime=1s ./internal/cube
	$(GO) test -run=NONE -fuzz=FuzzDictionaryRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s -fuzzminimizetime=1s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzGroupKey -fuzztime=10s -fuzzminimizetime=1s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzQueryRequest -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzIngestRequest -fuzztime=10s -fuzzminimizetime=1s ./cmd/spserve

# Randomized soak of the whole configuration space: 30 s of the
# cube-equivalence oracle (algorithm x distribution x aggregate x cluster
# shape x parallelism x spill leg x fault plan vs brute force and the
# point's own twins) past its seed corpus (which holds the old fixed random
# fault plans). CI runs this target.
# A failure is minimized into internal/integration/testdata/fuzz/; commit
# that file to pin it. A newly interesting input's minimization is capped
# at 1 s, as in fuzz-smoke.
chaos:
	$(GO) test -run=NONE -fuzz=FuzzCubeEquivalence -fuzztime=30s -fuzzminimizetime=1s ./internal/integration

# The next two targets rerun, without the race detector, tests that `make
# race` already runs; they are for quick local iteration on the proc backend.
#
# Execution-backend equivalence gate: every algorithm x fault plan on the
# proc backend's default NewProc() — one worker process per node, node
# crashes delivered as real SIGKILLs, dead workers respawned at the next
# round — must produce byte-identical output and volatile-stripped metrics
# vs the local backend, plus the differential oracle check and the
# cancellation/reap contract.
proc-smoke:
	$(GO) test -count=1 -run 'TestBackendDeterminismProc|TestBackendDifferentialProc|TestContextCancelProc' ./internal/mr/exec

# Randomized kill soak for the proc backend: SIGKILL worker processes at
# random moments mid-run; every run must either recover to the exact
# brute-force cube or fail plainly, leaking no worker processes.
chaos-proc:
	$(GO) test -count=1 -run TestChaosProcKillSoak ./internal/mr/exec

# The out-of-core shuffle at its extremes, under the default 1,024-fd limit:
# spilling every record (thousands of runs per reducer, far past the 64-run
# fan-in, so merge passes with one run file per task; the recipe fails
# unless its metrics document counts some), and a 4 KiB budget on one
# goroutine, must each write the in-memory run's cube byte for byte. So must the skewed iceberg batch
# (binomial, d = 6, half the rows one tuple) through a 64 KiB lz budget: the
# benchmark's spilling shape, at a fourteenth of its rows.
spill-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/gendata ./cmd/spcube; \
	"$$tmp/gendata" -dataset uniform -n 20000 -seed 7 -o "$$tmp/in.csv"; \
	"$$tmp/spcube" -in "$$tmp/in.csv" -o "$$tmp/mem.csv"; \
	ulimit -n 1024; \
	"$$tmp/spcube" -in "$$tmp/in.csv" -spill-budget 0 -spill-codec lz -spill-dir "$$tmp" -metrics-out "$$tmp/every.json" -o "$$tmp/every.csv"; \
	cmp "$$tmp/mem.csv" "$$tmp/every.csv"; \
	grep -q '"mergePasses": [1-9]' "$$tmp/every.json"; \
	"$$tmp/spcube" -in "$$tmp/in.csv" -spill-budget 4096 -p 1 -spill-dir "$$tmp" -o "$$tmp/4k.csv"; \
	cmp "$$tmp/mem.csv" "$$tmp/4k.csv"; \
	"$$tmp/gendata" -dataset binomial -d 6 -p 0.5 -n 40000 -o "$$tmp/skew.csv"; \
	"$$tmp/spcube" -in "$$tmp/skew.csv" -minsup 10 -o "$$tmp/skew-mem.csv"; \
	"$$tmp/spcube" -in "$$tmp/skew.csv" -minsup 10 -spill-budget 65536 -spill-codec lz -spill-dir "$$tmp" -o "$$tmp/skew-64k.csv"; \
	cmp "$$tmp/skew-mem.csv" "$$tmp/skew-64k.csv"; \
	echo "spill-smoke: spilled cubes equal the in-memory cube"

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The end-to-end benchmark harness (benchmark/, the program BENCHMARK.json
# runs) is its own module, so `./...` above never builds it: vet and test it
# against this tree, so that drift in the internal packages it imports
# fails here rather than when the benchmark is next run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Rewrite the golden legs (internal/bench/testdata/<leg>.golden.json): the
# figures of `spbench -exp <leg> -scale 0.05` and the SHA-256 of its
# volatile-stripped -metrics-out document, which TestFiguresGolden holds every
# tree to. The legs are fig6 (Pig, Hive, SP-Cube and both sampling rounds),
# ablation (SP-Cube without skew handling, without factorization, and the
# naive cube) and rounds (Pipesort). Run it only after a change that is meant
# to move them.
bench-json:
	$(GO) test ./internal/bench -run TestFiguresGolden -update

# Randomized incremental-maintenance soak: chaos-faulted cycles with appends
# and deletes feeding the serving store through patch + swap (under var
# every cycle merges; under min the deleting cycles also recompute the
# groups they touch), each cycle verified exactly against brute force;
# failing cycles must leave the served cube untouched.
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
# the live heap a round's map output keeps at the shuffle hand-off,
# partitioner, combiner, end-to-end naive cube, one spilling round, a round
# of sketch-sized map attempts, the reducers' output path).
# BENCH_COUNT runs each; `make bench-compare` sets them against another
# commit.
BENCH_COUNT ?= 6
BENCH_PATTERN ?= EngineHotPath|HashPartition|ShuffleMerge|ShuffleRetained|Combine|SpillRound|SmallAttempts|ReduceEmit
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

# Coverage gate for the maintenance layer: the merge, the recompute round
# and the publish path must stay above 80% statement coverage.
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
# the three served relations and under sum; Maintainer.Apply of harness-sized
# batches, under count and under sum), of the whole of start-up
# behind the CSV load (relation -> delta.New -> served Store), of the
# dictionary's encode and clone, and of the maintainer's cursor reads of its
# base (Cursor.Seek at a batch's ascending keys). Checks out BASE
# (default: the previous commit) into a temporary git worktree, copies the
# seven portable exported-API benchmark files in (so old trees predating them
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
		'internal/cli ready_bench_test.go ServeReady' \
		'internal/relation dictionary_bench_test.go DictionaryEncode|DictionaryClone' \
		'internal/cube seek_bench_test.go CursorSeek'; do \
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
