# Development targets for the dynp reproduction. Everything is plain Go;
# the Makefile only bundles the common invocations. `make ci` mirrors the
# GitHub Actions pipeline (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: all ci build vet fmt-check test race perfbench-test soak soak-disk bench bench-smoke bench-tuner bench-plan bench-plan-check bench-sim bench-sim-check bench-scale bench-scale-check bench-recover bench-recover-check bench-quote bench-quote-check fuzz repro repro-full ablations golden golden-check golden-check-registered golden-check-speculate golden-check-full clean

all: build vet test

# Everything the CI workflow gates merges on, minus the smoke jobs.
ci: build vet fmt-check test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean (mirrored by the CI build job).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# -shuffle=on randomises test (and package-level example) execution
# order, flushing out inter-test state dependencies; the seed is printed
# on failure for reproduction with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# Race-check everything. The concurrent pieces — the work-stealing shard
# pool, the experiment sweep, parallel what-if planning in the tuner,
# sim.RunParallel, the RMS snapshot readers, the chaos harness — all have
# tests that exercise real concurrency, and the sequential packages are
# cheap enough that whole-module coverage costs little extra.
race:
	$(GO) test -race ./...

# The benchmark harness is a nested module (perfbench/go.mod), so the
# root ./... patterns above never reach it: vet and test it on its own.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Deterministic chaos soak: concurrent clients through a fault-injecting
# network while processors fail and recover, race detector on. The fault
# schedules are seeded, so a failure here reproduces exactly.
soak:
	$(GO) test -race -count=1 -run TestChaosSoak -v ./internal/rms/chaos/

# Crash-recovery soak: a real dynpd process under protocol load with
# seeded disk faults eating at its journal, kill -9'd and restarted every
# cycle. Asserts byte-identical restored state and no lost or
# double-finished jobs. Seeded, so a failure reproduces.
soak-disk:
	$(GO) test -race -count=1 -run TestDiskFaultRecoverySoak -v ./internal/rms/chaos/

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the self-tuning benchmarks; CI uploads the
# output as an artifact for trajectory tracking.
bench-smoke:
	$(GO) test -bench=SelfTuner -benchtime=1x ./... | tee bench-smoke.txt

# Refresh the committed planning-cost snapshot.
bench-tuner:
	$(GO) run ./cmd/benchtuner -out BENCH_tuner.json

# Refresh the committed allocation snapshot of the what-if planning path
# (pooled vs unpooled builds, memoized vs rebuilt tuner steps).
bench-plan:
	$(GO) run ./cmd/benchplan -out BENCH_plan.json

# Fail when the tuner step's allocs/op regressed >10% against the
# committed BENCH_plan.json. CI runs this in the bench-smoke job.
bench-plan-check:
	$(GO) run ./cmd/benchplan -check BENCH_plan.json

# Refresh the committed simulation-throughput snapshot: Place
# micro-benchmarks of the profile and its Linear oracle plus end-to-end
# sim.Run rates at 1k/10k jobs.
bench-sim:
	$(GO) run ./cmd/benchsim -out BENCH_sim.json

# Fail when the 1k->10k throughput scaling or a speculation ratio
# regressed >10% against the committed BENCH_sim.json (the Place micro
# rows are reported, not gated). Ratios, not absolute ns, so the gate is
# machine-neutral.
# CI runs this in the bench-smoke job.
bench-sim-check:
	$(GO) run ./cmd/benchsim -check BENCH_sim.json

# Refresh the committed multi-core scaling snapshot: experiment-sweep and
# sim.RunParallel jobs/s plus tuner plan latency at GOMAXPROCS 1/2/4/N.
bench-scale:
	$(GO) run ./cmd/benchscale -out BENCH_scale.json

# Fail when a p-core-over-1-core scaling ratio regressed >10% against the
# committed BENCH_scale.json, or the experiment sweep scales under 2x at
# 4 cores. Ratios only, and only for core counts the machine physically
# has, so the gate is machine-neutral. CI runs this on a multi-core
# runner in the bench-scale job.
bench-scale-check:
	$(GO) run ./cmd/benchscale -check BENCH_scale.json

# Refresh the committed crash-recovery latency snapshot: checkpointed
# restart vs full genesis replay at a 10k-event journal history.
bench-recover:
	$(GO) run ./cmd/benchrecover -out BENCH_recover.json

# Fail when the checkpoint-over-genesis recovery speedup fell below 10x
# or regressed >25% against the committed BENCH_recover.json. Ratios, not
# absolute ns, so the gate is machine-neutral. CI runs this in the
# bench-smoke job.
bench-recover-check:
	$(GO) run ./cmd/benchrecover -check BENCH_recover.json

# Refresh the committed digital-twin quote snapshot: quote latency plus
# mutator latency with and without concurrent quote load.
bench-quote:
	$(GO) run ./cmd/benchquote -out BENCH_quote.json

# Fail when concurrent quotes inflate mutator latency beyond the
# allowance (isolation broke: a quote path took the scheduling lock).
# Ratios, not absolute ns, so the gate is machine-neutral. CI runs this
# in the bench-smoke job.
bench-quote-check:
	$(GO) run ./cmd/benchquote -check BENCH_quote.json

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/swf/
	$(GO) test -fuzz=FuzzServeConn -fuzztime=30s ./internal/rms/
	$(GO) test -fuzz=FuzzJournalRecover -fuzztime=30s ./internal/rms/
	$(GO) test -fuzz=FuzzProfileVsReference -fuzztime=30s ./internal/profile/
	$(GO) test -fuzz=FuzzSpeculationDifferential -fuzztime=30s ./internal/sim/

# Reduced-scale reproduction of every table and figure (about 4 minutes).
repro:
	$(GO) run ./cmd/paper

# Paper-scale reproduction: 10 sets x 10,000 jobs (about 50 minutes).
repro-full:
	$(GO) run ./cmd/paper -full

ablations:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8

# Regenerate the committed golden outputs after an *intentional*
# behavioural change (reduced scale ~4 min, full scale ~50 min on one
# core). Refactors must leave both files byte-identical instead.
golden:
	$(GO) run ./cmd/paper > paper_output.txt
	$(GO) run ./cmd/paper -full > paper_output_full.txt

# Byte-compare a fresh reduced-scale run of cmd/paper against the
# committed golden output: any change to scheduling behaviour — however
# small — fails here. CI runs this on every push.
golden-check:
	$(GO) run ./cmd/paper > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	rm -f paper_output.check.txt

# Like golden-check, but with a custom policy and decider registered (and
# never selected): registration alone must not perturb a single byte of
# the paper pipeline. CI runs this next to golden-check.
golden-check-registered:
	$(GO) run ./cmd/paper -register-inactive > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	rm -f paper_output.check.txt

# Like golden-check, but with the speculative cross-event planning
# pipeline enabled in every dynP tuner — plain and with the inactive
# registrations: speculation is an execution detail that must not perturb
# a single byte of the paper pipeline. CI runs this next to golden-check.
golden-check-speculate:
	$(GO) run ./cmd/paper -speculate > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	$(GO) run ./cmd/paper -register-inactive -speculate > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	rm -f paper_output.check.txt

# Paper-scale variant of golden-check (~50 minutes; the CI workflow runs
# it on schedule and on manual dispatch rather than per push).
golden-check-full:
	$(GO) run ./cmd/paper -full > paper_output_full.check.txt
	cmp paper_output_full.check.txt paper_output_full.txt
	rm -f paper_output_full.check.txt

clean:
	$(GO) clean ./...
	rm -f paper_output.check.txt paper_output_full.check.txt
