// Perfbench is the repository benchmark: it runs one workload of the DMP
// toolchain end to end, checks its outputs, and prints the metrics named in
// BENCHMARK.json as the last line of standard output.
//
// Usage (from the repository root):
//
//	perfbench --workload paper-eval|sweep-sampled|serve-gen --seed N --seconds S --trace 0|1
//
// Workloads (see METRICS.md for why each exists and which layer metric
// should move which end-to-end metric):
//
//   - paper-eval: harness.NewSession, then Table 2 and Figures 5-10 over the
//     17-benchmark corpus at full fidelity, exactly as dmpbench runs them.
//   - sweep-sampled: sweep.Run over the corpus at input scale 8 against a
//     ROBSize x DMP x MinMispPenalty grid, SMARTS-sampled, fresh cache.
//   - serve-gen: an in-process dmpserve daemon on loopback driven over HTTP
//     by a closed loop of nproc clients submitting seeded generated
//     programs, about one job in five a repeat of an earlier spec.
//
// A run repeats the workload's fixed work (a "pass", each with its own
// set-up) until --seconds of measured time have passed, at least two or
// three times, and reports medians. --trace 0 prints the end-to-end
// metrics; --trace 1 runs one untraced and one traced pass, then drives the
// workload's programs through every layer's public entry point one call at
// a time, and prints the per-layer metrics. The line before the result carries the host facts,
// the seed and the stats digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload: paper-eval, sweep-sampled or serve-gen")
	seed := flag.Uint64("seed", 1, "workload seed (serve-gen corpus and job order)")
	seconds := flag.Int("seconds", 20, "measured time to fill with repeated passes")
	traceMode := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spansOut := flag.String("spans", "", "write the traced run's spans to this file (JSON lines)")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload paper-eval|sweep-sampled|serve-gen --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceMode == 1,
		spansOut: *spansOut,
		par:      runtime.NumCPU(),
		size:     fullSize,
	}
	res, info, err := run(w, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}
