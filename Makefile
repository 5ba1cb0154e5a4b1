# Tier-1 gate: everything `make ci` runs must stay green.
#
#   make ci     vet + lint + build + race tests (includes the traced
#               concurrent harness sweep) + allocation guards (nil-Tracer
#               event emission and steady-state allocs/instruction)
#               + dmplint over the corpus + dmpsim/dmptrace tracing smoke
#               + the emulator fast-path differential suite + the
#               benchmark-regression gate + a generated-corpus smoke
#               (dmpgen -check over 50 programs) + the sampled-simulation
#               differential smoke (sample-error gate) + the dmpserve
#               daemon smoke (HTTP jobs, cache-hit probe, SIGTERM drain)
#               + the sweep-engine smoke (dmpsweep over a small grid,
#               run twice to exercise CSV resume) + the simulation-cache
#               smoke (dmpsim twice per mode against a fresh
#               DMP_CACHE_DIR: the second run must answer from disk)
#               + 30s parser and emulator differential fuzz smokes
#   make test   plain test run (what the quick tier-1 check uses)
#   make lint   pinned staticcheck + golangci-lint via scripts/lint.sh
#   make fuzz   longer local fuzzing session for the front-end and
#               compile+verify targets
#
# Lint is required, not best-effort: scripts/lint.sh pins the tool versions,
# fails on findings or version drift, and only downgrades to a loud skip
# when a tool is absent and cannot be installed offline (LINT_STRICT=1
# turns that skip into a failure too).

GO ?= go

.PHONY: ci vet lint build test race lint-corpus fuzz-smoke fuzz eval trace-smoke alloc-guard bench-compare emu-diff gen-smoke static-smoke sample-smoke serve-smoke serve-load sweep-smoke cache-smoke

ci: vet lint build race alloc-guard emu-diff lint-corpus trace-smoke bench-compare gen-smoke static-smoke sample-smoke serve-smoke sweep-smoke cache-smoke fuzz-smoke

vet:
	$(GO) vet ./...

# Static analysis beyond vet: pinned-version staticcheck + golangci-lint,
# findings fail the gate (see scripts/lint.sh for the offline policy).
lint:
	sh scripts/lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cross-layer static verification of every benchmark x input set x selection
# algorithm; any diagnostic fails the gate.
lint-corpus:
	$(GO) run ./cmd/dmplint -corpus

# End-to-end tracing smoke: a traced DMP run must produce a JSON event
# stream that dmptrace can decode and that contains dpred sessions.
trace-smoke:
	$(GO) run ./cmd/dmpsim -bench vpr -dmp -max 200000 -trace-json .trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/dmptrace -require-sessions .trace-smoke.jsonl >/dev/null
	rm -f .trace-smoke.jsonl

# Zero-overhead guards: a nil Tracer must add no allocation to event
# emission, and the simulator's steady-state allocs per retired instruction
# must stay near zero. Runs without -race (race skips alloc counting).
alloc-guard:
	$(GO) test -run 'TestNilTracerEventNoAlloc|TestSteadyStateAllocs' ./internal/pipeline

# Benchmark-regression gate: re-measures the corpus benchmarks, refreshes
# BENCH_PR9.json, and fails on a >15% throughput drop (or allocs/op growth)
# against the snapshot committed at HEAD. SKIP_BENCH_COMPARE=1 skips it;
# BENCH_UPDATE=1 refreshes the snapshot without gating.
bench-compare:
	sh scripts/bench_compare.sh

# Differential check of the predecoded fast execution paths against the
# reference interpreter: corpus trace-for-trace, block/batch equivalence,
# the hand-written fault matrix, and the warm executor (RunWarm) against
# RunBlock and the reference trace.
emu-diff:
	$(GO) test -run 'TestFastMatchesReference|TestRunMatchesReference|TestRunBlockMatchesReference|TestStepBatchMatchesReference|TestFaultEquivalence|TestStepBatchFaults|TestRunWarmMatchesRunBlock|TestRunWarmEventsMatchReference|TestRunWarmFaultMatchesRunBlock' ./internal/emu

# Generated-workload smoke: build a 50-program corpus across every preset
# and push each program through the full quality gate (all 8 selection
# algorithms verified + emu-vs-pipeline differential). Runs in seconds;
# the population-scale version lives in the harness test suite.
gen-smoke:
	$(GO) run ./cmd/dmpgen -preset all -n 50 -seed 1 -check

# Profile-free smoke: the same 50-program corpus and quality gate, but every
# selection algorithm consumes the static profile estimate (internal/static)
# instead of the train tape — zero diagnostics required end to end.
static-smoke:
	$(GO) run ./cmd/dmpgen -preset all -n 50 -seed 1 -check -static

# Sampled-simulation smoke: the sample-error differential gate on a corpus
# subset plus a small generated population — every full-fidelity IPC must
# land inside the sampled run's stated confidence interval, baseline and
# DMP alike (a non-zero miss count makes dmpbench exit non-zero). The
# population-scale version lives in the harness test suite
# (TestSampleErrorGate).
sample-smoke:
	$(GO) run ./cmd/dmpbench -exp sample-error -bench gzip,mcf,twolf -gen-n 12

# Daemon smoke: boot dmpserve on a random loopback port, drive HTTP jobs
# (including a duplicate spec that must be served from the shared simulation
# cache), scrape /metrics, and verify the SIGTERM graceful drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Daemon load test: 200 concurrent jobs over real HTTP against an in-process
# daemon; prints the JSON load report (throughput, latency percentiles,
# cache hit rate).
serve-load:
	sh scripts/serve_load.sh

# Sweep-engine smoke: a small benchmark x config grid through cmd/dmpsweep
# with CSV streaming, then the same invocation again against the same file —
# the second run must resume (skip every completed cell) instead of
# re-simulating. Runs in seconds.
sweep-smoke:
	rm -f .sweep-smoke.csv
	$(GO) run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
	$(GO) run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
	rm -f .sweep-smoke.csv

# Simulation-cache smoke: dmpsim -bench gzip run twice against a fresh
# DMP_CACHE_DIR, at full fidelity and with -sample. The second run of each
# must report disk_hits 1 and misses 0: cross-process reuse through the
# disk layer, end to end. Runs in seconds.
cache-smoke:
	sh scripts/cache_smoke.sh

# Short deterministic fuzz smoke for CI; crashes fail the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzEmuDiff -fuzztime=30s ./internal/emu

# Longer local session over the front-end and toolchain targets.
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5m ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzCheck -fuzztime=5m ./internal/lang
	$(GO) test -run '^$$' -fuzz=FuzzCompileVerify -fuzztime=5m ./internal/verify
	$(GO) test -run '^$$' -fuzz=FuzzEmuDiff -fuzztime=5m ./internal/emu

# Regenerate the checked-in evaluation transcript (slow; see EXPERIMENTS.md).
eval:
	$(GO) run ./cmd/dmpbench > evaluation_output.txt
