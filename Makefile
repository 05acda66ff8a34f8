# Developer workflow for afsysbench. `make check` is the PR gate: format,
# vet, full tests, and the race detector over the packages that shard work
# across the parallel engine.

GO ?= go

.PHONY: all build test check fmt vet doccheck loc race faults chaos chaos-disk chaos-cluster cluster-smoke fairness bench profile-cold profile-hot serve-bench serve-smoke cluster-bench bench-batch batch-smoke bench-smoke

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
# lines outside _test.go files that are neither blank nor a // comment line
# (whole repo, and outside bench/, which the benchmark owns); flags the
# three serving CLIs register, counted from their -h output so it does not
# matter which file the registration call sits in; fields of serve.Config;
# directories under cmd/, internal/ and examples/.
GOSRC = find . -name '*.go' ! -name '*_test.go'
CODE_LINES = xargs -0 cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
loc:
	@echo "non-test code lines:              $$($(GOSRC) -print0 | $(CODE_LINES))"
	@echo "  outside bench/:                 $$($(GOSRC) ! -path './bench/*' -print0 | $(CODE_LINES))"
	@echo "flags (afserve+afload+afcluster): $$(for b in afserve afload afcluster; do $(GO) run ./cmd/$$b -h 2>&1; done | grep -c '^  -')"
	@echo "serve.Config fields:              $$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z][A-Za-z]* /{n++} END{print n}' internal/serve/serve.go)"
	@echo "binaries:                         $$(ls cmd | wc -l)"
	@echo "internal packages:                $$(ls internal | wc -l)"
	@echo "examples:                         $$(ls examples | wc -l)"

# Race-check the concurrent hot path: the parallel engine itself, the
# packages whose kernels shard over it (including the hmmer scan-workspace
# pool that msa workers draw from concurrently), and the serving subsystem
# (cache singleflight, scheduler pools) with the modeled clock its report
# paths call from worker goroutines (vtime) and the scenario library's
# client pools. The second line's -run 'Test|Fuzz' keeps fuzz seed corpora
# replaying under the race detector wherever a package has a fuzz target
# (cachedisk and qos do; hmmer has none left and runs its tests).
race:
	$(GO) test -race ./internal/parallel ./internal/tensor ./internal/pairformer ./internal/diffusion ./internal/cache ./internal/batch ./internal/serve ./internal/msa ./internal/cluster ./internal/vtime ./internal/scenario
	$(GO) test -race -run 'Test|Fuzz' ./internal/hmmer ./internal/cachedisk ./internal/qos

# Fault-injection and degradation suite under the race detector: the
# resilience package, the cancellation paths through the scan engine, and
# the orchestrator's ladder/retry/exit-code tests.
faults:
	$(GO) test -race ./internal/resilience
	$(GO) test -race -run 'Ctx|Cancel|Fault|Resilience|Transient|Permanent|StageBudget|MemSpike|Stall|Stream|ExitCode|GoldenRun' ./internal/parallel ./internal/simio ./internal/hmmer ./internal/msa ./internal/core ./cmd/afsysbench

# Chaos storm under the race detector: a seeded 120-request fault storm
# (worker panics at every guard point, once-per-chain faults forcing
# checkpointed retries, a dark database tripping its breaker) against a
# live scheduler, asserting the serving fault-model invariants — every job
# terminal, pools at full strength, no goroutine leak. The seed is in the
# output; a failure reproduces with the printed flag line.
chaos:
	$(GO) run -race ./cmd/afload -chaos -seed 7 -n 120 -concurrency 8 -mix 2PV7:4,1YY9:1 -threads 2 -msa-workers 4 -gpu-workers 2

# Disk-fault chaos gate under the race detector: the persistent chain-cache
# tier lives through a seeded disk-fault storm (torn writes, failed fsyncs,
# mid-commit crashes, silent bit flips, read errors), direct vandalism of
# its directory, a restart, and a fully dark disk — asserting that every
# served MSA is bitwise-identical to fresh compute, corrupt entries are
# counted and dropped, and sustained failure degrades to memory-only with
# zero failed requests. A failure reproduces with the printed flag line.
chaos-disk:
	$(GO) run -race ./cmd/afload -chaos-disk -seed 11 -ppi 4 -concurrency 4 -threads 2 -msa-workers 4 -gpu-workers 2

# Cluster kill-storm gate under the race detector: a seeded trace through
# the sharded scatter-gather tier behind the replica router while two whole
# shard nodes and one serving replica are killed mid-storm — asserting zero
# wrong results (every digest matches the single-node reference), zero lost
# requests, counted shard and router failovers, survivors at full strength,
# and no goroutine leak. A failure reproduces with the printed flag line.
chaos-cluster:
	$(GO) run -race ./cmd/afcluster -chaos -seed 13 -shards 8 -replicas 3 -n 40 -mix 2PV7:3,1YY9:2 -threads 2 -msa-workers 2 -gpu-workers 1

# Cluster smoke for the check gate: the tiny end-to-end scaling sweep —
# reference pass, live scatter-gather cluster, digest verification, the
# modeled shard-efficiency curve with its 0.8 gate at 16 shards.
cluster-smoke:
	$(GO) test -run 'TestScalingRunSmoke' -count 1 ./cmd/afcluster

# Multi-tenant fairness gate under the race detector: an adversarial
# screening storm (bursty MMPP arrivals, poly-Q-heavy PPI mix, 10x the
# victim's offered load) against the tenant-aware scheduler — asserting
# the protected victim keeps its solo-baseline modeled p95 (<=1.5x) and
# sheds <5%, the FIFO comparator demonstrably violates both, and the
# admission/dispatch decision digests reproduce bit-for-bit across a
# rerun, a different pool size, and batching on/off. A failure
# reproduces with the printed flag line.
fairness:
	$(GO) run -race ./cmd/afload -fairness -seed 7 -threads 2 -msa-workers 4 -gpu-workers 2

check: fmt vet doccheck test race faults chaos chaos-disk chaos-cluster cluster-smoke fairness serve-smoke batch-smoke bench-smoke

# Cluster scaling benchmark: the full shards × replicas sweep merged into
# BENCH_serve.json as the cluster_scaling section (run serve-bench first so
# the single-node sections are fresh in the same file).
cluster-bench:
	$(GO) run ./cmd/afcluster -shards 8 -replicas 3 -n 24 -mix 2PV7:3,1YY9:2,6QNR:1 -json BENCH_serve.json

# Kernel microbenchmarks with allocation tracking: the tensor kernels serial
# vs parallel, and the MSA scan hot path's two arms on identical inputs
# (the test-only oracle kernels, the product cascade — both on the seeded
# path requests take) plus the 0-alloc steady-state path and, in ns/cell
# against their oracles, the Forward kernel and the band recurrence under
# its scoring and traceback drivers (64 distinct targets per iteration set,
# so a kernel that branches is not flattered). The numbers of record for
# the scan are the repo benchmark's hmmer.*_ns_per_cell (sh bench/run.sh
# --trace 1).
bench:
	$(GO) test -run xxx -bench 'MatMul|TriangleAttention|BlockApply|DiffusionDenoise' -benchmem ./internal/tensor ./internal/pairformer ./internal/diffusion
	$(GO) test -run xxx -bench 'Scan|Forward|BandedViterbi' -benchmem ./internal/hmmer

# Where a cold request's CPU goes: three one-thread passes of the cold_msa
# request mix through Suite.RunPipeline with FreshMSA (BenchmarkColdMix)
# under the CPU profiler, then the 15 hottest functions. The test binary and
# the profile stay out of the tree.
PROFILE_DIR ?= /tmp/afsysbench-profile
profile-cold:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench ColdMix -benchtime 3x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/cold.pprof ./internal/core
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/cold.pprof

# Its twin for the cached path: 2 000 passes of the hot_cache request mix
# through RunPipeline behind a chain cache that always hits (BenchmarkHotMix,
# ~1.4 ms a pass; the suite build and the one pass of real searches that
# fills the cache are ≈ 5 % of the samples).
profile-hot:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench HotMix -benchtime 2000x -o $(PROFILE_DIR)/core.test -cpuprofile $(PROFILE_DIR)/hot.pprof ./internal/core
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/core.test $(PROFILE_DIR)/hot.pprof

# Serving benchmark: the all-vs-all PPI screening mix through the two-tier
# chain cache — a warm pass precomputes the disk tier, the measured pass
# starts with a cold memory tier, and -compare-cache adds the cache-off and
# request-keyed baselines with the modeled makespan improvement of
# chain-level keys. Emits BENCH_serve.json.
serve-bench:
	rm -rf /tmp/afsysbench-serve-tier
	$(GO) run ./cmd/afload -ppi 6 -concurrency 4 -threads 4 -msa-workers 4 -cache-dir /tmp/afsysbench-serve-tier -warm -compare-cache -json BENCH_serve.json

# Smoke variant of serve-bench for the check gate: small trace, no artifact.
serve-smoke:
	rm -rf /tmp/afsysbench-serve-smoke-tier
	$(GO) run ./cmd/afload -ppi 4 -concurrency 2 -threads 4 -msa-workers 2 -cache-dir /tmp/afsysbench-serve-smoke-tier -warm -compare-cache

# Cross-request batching benchmark: the compile-dominated -> compute-dominated
# crossover sweep (modeled curve, measured offered-load sweep, bucket-count
# sweep) merged into BENCH_serve.json as the batch_crossover section. The
# sweep is its own gate: it fails unless the small-input unbatched overhead
# exceeds the paper's 75% and batching reaches <50% within the memory cap.
bench-batch:
	$(GO) run ./cmd/afload -batch-sweep -n 16 -json BENCH_serve.json

# Smoke variant for the check gate: same sweep and gate, no artifact.
batch-smoke:
	$(GO) run ./cmd/afload -batch-sweep -n 16

# Smoke run of the repo benchmark (BENCHMARK.json, bench/) for the check
# gate: all six workloads shrunk to about two seconds each, with the
# harness's verifiers on — every result digest against a direct
# RunPipeline, the QoS replay oracle on tenant_storm, every figure/table
# cell against bench/golden. Numbers from a smoke run are not comparable;
# bench/README.md has the measuring procedure.
bench-smoke:
	$(GO) run ./bench -smoke
