# Development entry points. `make check` is the full gate: gofmt, vet
# (the module and the bench module), build, a fast race pass over the
# runner and engine, full race-enabled tests, a benchsuite smoke run, a
# traced-run smoke (Chrome trace export), a plain test run (the one run
# of the allocation gates without the race detector: TestZeroAlloc*,
# among them the granule table's TestZeroAllocUntouchedReads and
# TestZeroAllocDelegateResident, hw's TestZeroAllocRecordExecution and
# host's TestZeroAllocKernelCycle with its rotating pollers, plus
# TestTrialAllocs and TestSteadyStateTrialAllocs; the same run checks
# every experiment's seed-42 CSVs and counter banks against
# internal/exp/testdata/digests.txt, TestArtifactDigests, and the host
# core rotation against its per-slice reference,
# TestRotationMatchesPerSlice), one iteration of every Go benchmark (so
# none rots unseen), an end-to-end determinism check (serial CSV output
# == 8-way parallel CSV output), the committed benchmark artifact
# digests, and the dead-code gate (unreachable: every internal/ function
# no binary reaches is listed, with a reason, in
# scripts/unreachable/allow.txt, and every listed one is still dead).
# Host cost is measured by bench/run.sh.

GO ?= go

.PHONY: all check fmt vet build test bench-once race race-fast smoke trace-smoke determinism digests bench-paper profile unreachable clean

all: check

check: fmt vet build race-fast race smoke trace-smoke test bench-once determinism digests unreachable

# Every Go file must be gofmt-clean; the offenders are listed on failure.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every Go benchmark, one iteration each and no tests: a benchmark that
# no longer compiles or panics fails the gate. Timings are not checked.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The shape tests simulate tens of seconds of machine time; under the
# race detector on a small host that exceeds go test's default 10m
# package timeout, so raise it.
race:
	$(GO) test -race -timeout 45m ./...

# Fast feedback for the packages where worker concurrency actually
# lives: the pooled-context runner, the engine it rewinds, the metrics
# layer (streaming recorder + windowed rollover) those share, and the
# µarch model and attack harness, whose lazy fills share the
# process-wide jump memo.
# -short keeps the pooled-vs-fresh sweep to the cheap experiments
# (which include openloop, the windowed-determinism canary).
race-fast:
	$(GO) test -race -short -timeout 10m ./internal/exp ./internal/sim ./internal/trace ./internal/vmm ./internal/uarch ./internal/attack

# A quick end-to-end run through the registry and the parallel runner.
smoke:
	$(GO) run ./cmd/benchsuite -exp table2 -parallel 4

# Sim-time tracing end to end: arm the flight recorder on a real
# scenario, export Chrome trace JSON, and sanity-check it is non-trivial.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/coregapctl -workload ipibench -rounds 50 -trace "$$tmp/trace.json" >/dev/null && \
	grep -q '"hw.world_switch"' "$$tmp/trace.json" && \
	grep -q '"traceEvents"' "$$tmp/trace.json" && \
	echo "trace-smoke: Chrome trace exported and well-formed"

# The parallel runner must produce byte-identical artifacts to a serial
# run for the same seed: every experiment's CSVs and its per-trial
# engine counter bank (-counters). openloop's per-window CSVs are the
# output most sensitive to trial scheduling.
determinism:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/benchsuite -exp all -counters -parallel 1 -csv "$$tmp/serial" >/dev/null && \
	$(GO) run ./cmd/benchsuite -exp all -counters -parallel 8 -csv "$$tmp/parallel" >/dev/null && \
	diff -r "$$tmp/serial" "$$tmp/parallel" && \
	echo "determinism: serial and parallel CSVs and counter banks identical"

# The bench module's tests: each workload's artifacts at seed 42 must
# match the SHA-256 digests committed in bench/testdata/digests.txt.
digests:
	$(GO) -C bench test ./...

# The historical whole-repo benchmark sweep (one per paper artifact).
bench-paper:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Start perf work from a pprof, not a guess: profiles the heaviest
# registry experiment and leaves cpu.pprof/mem.pprof for
# `go tool pprof`.
profile:
	$(GO) run ./cmd/benchsuite -exp fig6 -parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "profile: wrote cpu.pprof and mem.pprof (go tool pprof cpu.pprof)"

# Every non-test func under internal/ that no binary (cmd/*, examples/*,
# bench) links, with its line count and allowlist reason. Fails on one
# missing from scripts/unreachable/allow.txt, and on a listed one that is
# now reached or gone: delete new dead code, or list it with a reason.
unreachable:
	$(GO) run ./scripts/unreachable

clean:
	$(GO) clean ./...
