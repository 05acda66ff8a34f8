# Developer workflow for afsysbench. `make check` is the PR gate: format,
# vet, the doc check, full tests, the race detector over the packages that
# shard work across the parallel engine (the serving gates, TestGates in
# internal/scenario, among them), the fault suite and the benchmark smoke.

GO ?= go

.PHONY: all build test check fmt vet doccheck loc race faults bench profile-cold profile-hot profile-figures profile-ppi serve-bench bench-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Docs as a checked artifact: every repo path, make target and
# Test*/Benchmark* name a code span of these files mentions must exist in the
# tree, and README's flag tables must agree with the serving binaries' -h in
# both directions. bench/README.md belongs to the benchmark, so its misses
# only warn.
doccheck:
	@GO="$(GO)" sh scripts/doccheck.sh README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md warn:bench/README.md

# The size numbers ROADMAP aim 2 reports, by the rule every diet PR uses: Go
# lines that are neither blank nor a // comment line, outside _test.go files
# (whole repo, and outside bench/, which the benchmark owns) and inside them
# (outside bench/: code moved into a test is not code removed); flags the
# two serving CLIs register, counted from their -h output so it does not
# matter which file the registration call sits in; fields of serve.Config
# and of serve's job (one field a line, by the same rule); directories
# under cmd/, internal/ and examples/.
GOSRC = find . -name '*.go' ! -name '*_test.go'
CODE_LINES = xargs -0 cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
loc:
	@echo "non-test code lines:              $$($(GOSRC) -print0 | $(CODE_LINES))"
	@echo "  outside bench/:                 $$($(GOSRC) ! -path './bench/*' -print0 | $(CODE_LINES))"
	@echo "test code lines outside bench/:   $$(find . -name '*_test.go' ! -path './bench/*' -print0 | $(CODE_LINES))"
	@echo "flags (afserve+afload):           $$(for b in afserve afload; do $(GO) run ./cmd/$$b -h 2>&1; done | grep -c '^  -')"
	@echo "serve.Config fields:              $$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z][A-Za-z]* /{n++} END{print n}' internal/serve/serve.go)"
	@echo "serve job fields:                 $$(awk '/^type job struct/{f=1;next} f&&/^}/{exit} f&&/^\t[a-z][A-Za-z]* /{n++} END{print n}' internal/serve/serve.go)"
	@echo "binaries:                         $$(ls cmd | wc -l)"
	@echo "internal packages:                $$(ls internal | wc -l)"
	@echo "examples:                         $$(ls examples | wc -l)"

# Race-check the concurrent hot path: the parallel engine itself, the
# packages whose kernels shard over it (including the hmmer scan-workspace
# pool that msa workers draw from concurrently), and the serving subsystem
# (cache singleflight, scheduler pools) with the modeled clock its report
# paths call from worker goroutines (vtime), and the scenario library's
# client pools with the serving gates (TestGates: chaos, chaos-disk,
# chaos-cluster, cluster-scaling, fairness, batch-sweep). The second line's
# -run 'Test|Fuzz' keeps fuzz seed corpora replaying under the race detector
# wherever a package has a fuzz target (cachedisk and qos do; hmmer has none
# left and runs its tests; msa's chain-codec corpus runs on the first line).
race:
	$(GO) test -race ./internal/parallel ./internal/tensor ./internal/pairformer ./internal/diffusion ./internal/cache ./internal/batch ./internal/serve ./internal/msa ./internal/cluster ./internal/vtime ./internal/scenario
	$(GO) test -race -run 'Test|Fuzz' ./internal/hmmer ./internal/cachedisk ./internal/qos

# Fault-injection and degradation suite under the race detector: the
# resilience package, the cancellation paths through the scan engine, and
# the orchestrator's ladder/retry/exit-code tests.
faults:
	$(GO) test -race ./internal/resilience
	$(GO) test -race -run 'Ctx|Cancel|Fault|Resilience|Transient|Permanent|StageBudget|MemSpike|Stall|Stream|ExitCode|GoldenRun' ./internal/parallel ./internal/simio ./internal/hmmer ./internal/msa ./internal/core ./cmd/afsysbench

check: fmt vet doccheck test race faults bench-smoke

# Kernel microbenchmarks with allocation tracking: the tensor kernels serial
# vs parallel, and the MSA scan hot path's two arms on identical inputs
# (the test-only oracle kernels, the product cascade — both on the seeded
# path requests take) plus the 0-alloc steady-state path and, in ns/cell
# against their oracles, the Forward kernel and the band recurrence under
# its scoring and traceback drivers (64 distinct targets per iteration set,
# so a kernel that branches is not flattered). The numbers of record for
# the scan are the repo benchmark's hmmer.*_ns_per_cell (sh bench/run.sh
# --trace 1). Last, the chain codec — encode and decode of each PPI pool
# chain, the disk tier's payloads — and the chain replay: one cached chain
# re-cut into 1, 4 and 16 workers, what every cache hit pays.
bench:
	$(GO) test -run xxx -bench 'MatMul|TriangleAttention|BlockApply|DiffusionDenoise' -benchmem ./internal/tensor ./internal/pairformer ./internal/diffusion
	$(GO) test -run xxx -bench 'Scan|Forward|BandedViterbi' -benchmem ./internal/hmmer
	$(GO) test -run xxx -bench 'ChainCodec|ChainReplay' -benchmem ./internal/msa

# Where a cold request's CPU and bytes go: three one-thread passes of the
# cold_msa request mix through Suite.RunPipeline with FreshMSA
# (BenchmarkColdMix) under the CPU profiler, then the 15 hottest functions;
# then three more passes of the same test binary with every allocation
# sampled, and the 10 functions that allocate the most bytes (alloc_space),
# with the B/op of a pass. The test binary and the profiles stay out of the
# tree.
PROFILE_DIR ?= /tmp/afsysbench-profile
profile-cold:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench ColdMix -benchtime 3x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/cold.pprof ./internal/core
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/cold.pprof
	cd internal/core && $(PROFILE_DIR)/core.test -test.run xxx -test.bench ColdMix -test.benchtime 3x -test.benchmem -test.memprofilerate 1 -test.memprofile $(PROFILE_DIR)/cold.mem.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index alloc_space $(PROFILE_DIR)/core.test $(PROFILE_DIR)/cold.mem.pprof

# Its twin for the cached path: 6 000 passes of the hot_cache request mix
# through RunPipeline behind a chain cache that always hits (BenchmarkHotMix,
# ≈ 0.4 ms a pass; the suite build and the one pass of real searches that
# fills the cache are ≈ 10 % of the samples).
profile-hot:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench HotMix -benchtime 6000x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/hot.pprof ./internal/core
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/hot.pprof

# And for the paper side: ten paper_figures passes — the twelve figure and
# table producers on a fresh suite (BenchmarkPaperPass) — with the suite
# build and XLA warm-up outside the timer, though not outside the profile.
profile-figures:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench PaperPass -benchtime 10x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/figures.pprof ./internal/core
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/figures.pprof

# And for a PPI screen's disk hits: 3 000 screening pairs at 2 threads,
# each chain decoded from its encoded payload and merged
# (BenchmarkPPIDiskHit in internal/msa, ≈ 0.2 ms a pair; the pool's ten
# searches before the timer are in the profile too), then the 15 hottest
# functions; then 1 000 more pairs with every allocation sampled, and the 10
# functions that allocate the most bytes, with the B/op of a pair.
profile-ppi:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench PPIDiskHit -benchtime 3000x -o $(PROFILE_DIR)/msa.test -cpuprofile $(PROFILE_DIR)/ppi.pprof ./internal/msa
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/msa.test $(PROFILE_DIR)/ppi.pprof
	cd internal/msa && $(PROFILE_DIR)/msa.test -test.run xxx -test.bench PPIDiskHit -test.benchtime 1000x -test.benchmem -test.memprofilerate 1 -test.memprofile $(PROFILE_DIR)/ppi.mem.pprof
	$(GO) tool pprof -top -nodecount 10 -sample_index alloc_space $(PROFILE_DIR)/msa.test $(PROFILE_DIR)/ppi.mem.pprof

# Serving benchmark: the all-vs-all PPI screening mix through the two-tier
# chain cache — a warm pass precomputes the disk tier, the measured pass
# starts with a cold memory tier, and -compare-cache adds the cache-off and
# request-keyed baselines with the modeled makespan improvement of
# chain-level keys. It only prints; cmd/afload's TestWarmTwoTierPPI runs the
# same shape at -ppi 4 and pins its modeled makespans.
serve-bench:
	rm -rf /tmp/afsysbench-serve-tier
	$(GO) run ./cmd/afload -ppi 6 -concurrency 4 -threads 4 -msa-workers 4 -cache-dir /tmp/afsysbench-serve-tier -warm -compare-cache

# Smoke run of the repo benchmark (BENCHMARK.json, bench/) for the check
# gate: all six workloads shrunk to about two seconds each, with the
# harness's verifiers on — every result digest against a direct
# RunPipeline, the QoS replay oracle on tenant_storm, every figure/table
# cell against bench/golden. Numbers from a smoke run are not comparable;
# bench/README.md has the measuring procedure.
bench-smoke:
	$(GO) run ./bench -smoke
