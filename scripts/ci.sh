#!/bin/sh
# Tier-1 CI gate. Mirrors `make ci` for environments without make:
# vet, the required pinned-version lint gate (scripts/lint.sh), build, the
# full test suite under the race detector, the allocation guards, the
# emulator fast-path differential suite, the dmplint corpus sweep, the
# benchmark-regression gate (skippable with SKIP_BENCH_COMPARE=1), the
# generated-corpus smoke (dmpgen -check over 50 programs spanning every
# preset), the profile-free static-estimate smoke (the same corpus with
# -check -static), the sampled-simulation differential smoke (the
# sample-error gate over a corpus subset and a small generated population:
# every full-fidelity IPC must land inside the sampled confidence interval),
# the dmpserve daemon smoke (real HTTP jobs including a duplicate spec that
# must hit the shared simulation cache, a /metrics scrape, and a SIGTERM
# graceful-drain check), the sweep-engine smoke (a small benchmark x config
# grid through cmd/dmpsweep with CSV streaming, run twice so the second
# invocation exercises resume), the simulation-cache smoke (dmpsim run twice
# per mode, full and sampled, against a fresh DMP_CACHE_DIR: the second run
# must answer from disk), and short deterministic fuzz smokes over the DML
# parser and the emulator differential harness.
set -eux

go vet ./...
sh scripts/lint.sh
go build ./...
go test -race ./...
go test -run 'TestNilTracerEventNoAlloc|TestSteadyStateAllocs' ./internal/pipeline
go test -run 'TestFastMatchesReference|TestRunMatchesReference|TestRunBlockMatchesReference|TestStepBatchMatchesReference|TestFaultEquivalence|TestStepBatchFaults|TestRunWarmMatchesRunBlock|TestRunWarmEventsMatchReference|TestRunWarmFaultMatchesRunBlock' ./internal/emu
sh scripts/bench_compare.sh
go run ./cmd/dmplint -corpus
go run ./cmd/dmpgen -preset all -n 50 -seed 1 -check
go run ./cmd/dmpgen -preset all -n 50 -seed 1 -check -static
go run ./cmd/dmpbench -exp sample-error -bench gzip,mcf,twolf -gen-n 12
go run ./cmd/dmpsim -bench vpr -dmp -max 200000 -trace-json .trace-smoke.jsonl >/dev/null
go run ./cmd/dmptrace -require-sessions .trace-smoke.jsonl >/dev/null
rm -f .trace-smoke.jsonl
sh scripts/serve_smoke.sh
rm -f .sweep-smoke.csv
go run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
go run ./cmd/dmpsweep -bench gzip,mcf -axis ROBSize=128,512 -axis DMP=false,true -max 200000 -q -out .sweep-smoke.csv >/dev/null
rm -f .sweep-smoke.csv
sh scripts/cache_smoke.sh
go test -run '^$' -fuzz=FuzzParse -fuzztime=30s ./internal/lang
go test -run '^$' -fuzz=FuzzEmuDiff -fuzztime=30s ./internal/emu
