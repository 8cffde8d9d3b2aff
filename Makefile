GO ?= go

.PHONY: all build test race vet staticcheck bench bench-smoke fmt fmt-check ci golden test-faults test-crash test-failover fuzz-smoke test-parallel test-mobility

all: build vet test

# ci is the full merge gate: compile, static checks, gofmt-clean
# sources, the race-detector test run, the experiment-output golden check (byte-identical paper
# figures modulo timing strings), a one-iteration benchmark smoke pass
# so benchmark code cannot rot, the seeded fault-injection suite, the
# crash-recovery boundary replay, the replication/failover suite, a
# short fuzz pass over the wire codec, every ctrlproto decoder, the
# WAL and snapshot readers and the broker's text parsers, and
# the fan-out determinism suite (engine, sensing, plan cells) repeated at
# GOMAXPROCS=1,2,4.
ci: build vet staticcheck fmt-check race golden bench-smoke test-faults test-crash test-failover test-mobility fuzz-smoke test-parallel

# fuzz-smoke runs the wire-frame fuzzer, the ctrlproto payload-decoder
# fuzzer, the WAL and snapshot readers' fuzzers and the broker's two text
# parsers (intent translation, spec-sheet driver generation) briefly on top
# of their seed corpora: enough to catch parser regressions without a fuzz
# farm.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/ctrlproto/
	$(GO) test -run=NONE -fuzz=FuzzWAL -fuzztime=10s ./internal/store/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=10s ./internal/store/
	$(GO) test -run=NONE -fuzz=FuzzTranslate -fuzztime=10s ./internal/broker/
	$(GO) test -run=NONE -fuzz=FuzzGenerateSpec -fuzztime=10s ./internal/broker/

# staticcheck runs honnef.co/go/tools when the binary is available (the
# GitHub workflow installs the pinned version; offline dev containers
# without it skip the step rather than failing the whole gate). The
# codebase carries zero findings — new ones are merge blockers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# test-faults replays the fault-injection and self-healing suite under
# the race detector at three fixed seeds. SURFOS_FAULT_SEED reroutes
# every seeded fault model/wire script in the tests; the assertions are
# seed-robust by construction, so a failure at any seed is a real bug.
FAULT_SEEDS ?= 1 7 1337
FAULT_RUN := 'Fault|Wire|Retry|Timeout|Backoff|Health|Probe|SelfHeal|Stuck|Dead|Recover|Replan|Chaos|Pin'
FAULT_PKGS := ./internal/driver ./internal/ctrlproto ./internal/hwmgr \
	./internal/orchestrator ./internal/monitor ./internal/rfsim \
	./internal/experiments ./cmd/...
test-faults:
	@for seed in $(FAULT_SEEDS); do \
		echo "== fault suite, seed $$seed =="; \
		SURFOS_FAULT_SEED=$$seed $(GO) test -race -count=1 \
			-run $(FAULT_RUN) $(FAULT_PKGS) || exit 1; \
	done

# test-crash replays journal recovery with the WAL truncated at every
# record boundary — clean and torn — under the race detector. Any prefix
# of the journal must recover to exactly the state its surviving records
# describe, and a moved or re-queued task must recover as it last stood.
# The group-commit tests run here too: a burst journaled in batches loses
# nothing, batching leaves the WAL and snapshots byte-identical, a failed
# batch fsync ships nothing, and Run writes the batch it drained before
# it honours a cancel.
test-crash:
	$(GO) test -race -count=1 -run 'Crash|TruncatedTail|Corrupt|SequenceGap|Snapshot|Durable|GroupCommit|BatchConsume|FailedSync|DrainedBatch' ./internal/store ./internal/orchestrator

# test-failover exercises the replicated control plane under the race
# detector at the fault seeds: the follower crash-replay boundary matrix,
# epoch fencing, lease promotion, the surfctl failover rotation, and the
# end-to-end failover chaos experiment (promotion within the lease, zero
# live tasks lost, plans byte-identical to a primary reboot), the
# follower's one-fsync-per-shipped-batch commit, and the moved and
# re-queued task recovery tests.
test-failover:
	@for seed in $(FAULT_SEEDS); do \
		echo "== failover suite, seed $$seed =="; \
		SURFOS_FAULT_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Follower|Repl|StaleEpoch|Failover|FailsOver|Lease|Promot|Rotates|Standby|Durable|ShippedBatch' \
			./internal/store ./internal/ctrlproto ./internal/orchestrator ./internal/experiments ./cmd/... || exit 1; \
	done

# test-mobility replays the churn-hardening suite under the race detector
# at the fault seeds: the discrete-event scenario engine, per-region
# TxContext invalidation (wall thrash in one room leaves other rooms'
# traces hot), and cross-domain handoff with zero task loss, plus the plan-frame and
# plan-bytes pins of the one plan builder the handoffs re-plan through.
# The mobility experiment's per-seed golden (byte-identical replay) runs
# inside the same pass.
test-mobility:
	@for seed in $(FAULT_SEEDS); do \
		echo "== mobility suite, seed $$seed =="; \
		SURFOS_FAULT_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Mobility|MoveTask|Carry|Thrash|Edit|Handoff|Poisson|Orders|Clamps|StopsOnFirstError|Frame|PlanBytes' \
			./internal/scenario ./internal/scene ./internal/engine \
			./internal/orchestrator ./internal/ctrlproto ./internal/monitor \
			./internal/experiments ./cmd/... || exit 1; \
	done

golden:
	./scripts/golden-check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race target is CI's concurrency gate: the engine worker pool, the
# orchestrator, and the telemetry/monitor path all run under the detector,
# in shuffled order. ci.yml runs its gates through these targets, so this
# file holds the one list of commands.
race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run=NONE -bench=BenchmarkEngine -benchmem .

# bench-smoke compiles and runs every benchmark for exactly one iteration;
# it catches benchmarks broken by API changes without paying timing runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# test-parallel reruns the sensing and engine suites, and the orchestrator's
# plan-bytes, frame, race and coalescing tests (a plan's cells are built
# concurrently; one reconcile pass runs at a time), at several GOMAXPROCS values (-cpu multiplies each test): Engine.ForEach
# fan-outs must stay bit-identical to serial whether the runtime has 1, 2,
# or 4 procs.
test-parallel:
	$(GO) test -count=1 -cpu=1,2,4 ./internal/sensing/ ./internal/engine/
	$(GO) test -count=1 -cpu=1,2,4 -run 'PlanBytes|Frame|Race|Coalesce' ./internal/orchestrator/

fmt:
	gofmt -l -w .

# fmt-check fails when any Go file is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"
