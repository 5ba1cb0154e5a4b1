// Dmpsim runs the cycle-level processor model on a DISA binary, in baseline
// or diverge-merge (DMP) mode, and prints the performance statistics.
//
// Usage:
//
//	dmpsim -bin prog.dmp [-in inputs.txt] [-dmp] [-max N] [-metrics-json file]
//	dmpsim -bench vpr [-dmp] [-scale N] [-max N]
//	dmpsim -bench vpr -dmp -trace-json trace.jsonl
//	dmpsim -bench gzip -sample
//
// -bench runs a benchmark from the built-in corpus instead of a compiled
// binary; with -dmp it profiles the run input and applies the paper's
// selection algorithm (All-best-heur) before simulating.
//
// -sample estimates the statistics with the SMARTS sampled executor
// (internal/sample, DESIGN.md Section 16) at its default configuration
// instead of simulating every instruction in detail: the printed IPC is an
// estimate and an extra "sampling" line reports its confidence interval,
// interval count and detailed-simulation share. Sampled results are
// memoized under their own cache namespace, disjoint from full-fidelity
// entries.
//
// -trace streams human-readable pipeline events (fetch breaks, flushes,
// dpred-session lifecycle) to stderr; -trace-json streams the same events as
// JSON lines to a file ("-" = stdout, in which case the statistics move to
// stderr). Traced runs bypass the simulation cache — a cached answer would
// emit no events. cmd/dmptrace summarizes a captured JSON stream.
//
// When the DMP_CACHE_DIR environment variable names a directory, simulation
// results are memoized there by content hash (program + annotations, input
// tape, machine configuration): re-running the same simulation answers from
// the cache instead of re-simulating. -metrics-json reports whether this run
// hit the cache, its wall time and the simulator throughput.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/stats"
	"dmp/internal/trace"
)

func main() {
	bin := flag.String("bin", "", "DISA binary (from dmpcc)")
	in := flag.String("in", "", "input tape (one integer per line)")
	benchName := flag.String("bench", "", "run a corpus benchmark instead of -bin (see dmpbench)")
	scale := flag.Int("scale", 1, "input scale factor for -bench")
	dmp := flag.Bool("dmp", false, "enable dynamic predication")
	sampled := flag.Bool("sample", false, "estimate via SMARTS sampled simulation (prints the confidence interval)")
	maxInsts := flag.Uint64("max", 0, "simulate at most N instructions (0 = all)")
	traceText := flag.Bool("trace", false, "stream pipeline events as text to stderr")
	traceJSON := flag.String("trace-json", "", "stream pipeline events as JSON lines to this file (\"-\" = stdout)")
	auditTop := flag.Int("audit-top", 10, "rows in the dpred session-audit table (0 = all)")
	metricsJSON := flag.String("metrics-json", "", "write run metrics as JSON to this file (\"-\" = stdout)")
	flag.Parse()

	if (*bin == "") == (*benchName == "") {
		fmt.Fprintln(os.Stderr, "dmpsim: exactly one of -bin or -bench is required")
		os.Exit(2)
	}

	var prog *isa.Program
	var input []int64
	var err error
	if *benchName != "" {
		b := bench.ByName(*benchName)
		if b == nil {
			fmt.Fprintf(os.Stderr, "dmpsim: unknown benchmark %q\n", *benchName)
			os.Exit(2)
		}
		prog, err = b.Compile()
		check(err)
		input = b.Input(bench.RunInput, *scale)
		if *dmp {
			prof, err := profile.Collect(prog, input, profile.Options{})
			check(err)
			res, err := core.Select(prog, prof, core.HeuristicParams())
			check(err)
			prog = prog.WithAnnots(res.Annots)
		}
	} else {
		f, err := os.Open(*bin)
		check(err)
		prog, err = isa.ReadProgram(f)
		f.Close()
		check(err)
		if *in != "" {
			input, err = readTape(*in)
			check(err)
		}
	}

	// Statistics go to stdout unless the JSON event stream owns it.
	out := io.Writer(os.Stdout)

	cfg := pipeline.DefaultConfig()
	cfg.DMP = *dmp
	cfg.MaxInsts = *maxInsts
	var tracers multiTracer
	if *traceText {
		tw := trace.NewTextWriter(os.Stderr)
		defer func() { check(tw.Close()) }()
		tracers = append(tracers, tw)
	}
	if *traceJSON != "" {
		w := io.Writer(os.Stdout)
		if *traceJSON == "-" {
			out = os.Stderr
		} else {
			f, err := os.Create(*traceJSON)
			check(err)
			defer func() { check(f.Close()) }()
			w = f
		}
		jw := trace.NewJSONWriter(w)
		defer func() { check(jw.Close()) }()
		tracers = append(tracers, jw)
	}
	switch len(tracers) {
	case 0:
	case 1:
		cfg.Tracer = tracers[0]
	default:
		cfg.Tracer = tracers
	}

	cache := simcache.FromEnv()
	start := time.Now()
	var st pipeline.Stats
	var sr sample.Result
	if *sampled {
		sr, err = cache.RunSampled(context.Background(), prog, input, cfg, sample.DefaultConf())
		check(err)
		st = sr.AsStats()
	} else {
		st, err = cache.Run(context.Background(), prog, input, cfg)
		check(err)
	}
	wall := time.Since(start)

	mode := "baseline"
	if *dmp {
		mode = "DMP"
	}
	if *sampled {
		mode += " (sampled)"
	}
	fmt.Fprintf(out, "mode             %s\n", mode)
	fmt.Fprintf(out, "cycles           %d\n", st.Cycles)
	fmt.Fprintf(out, "retired          %d\n", st.Retired)
	if st.Degenerate() {
		fmt.Fprintf(out, "WARNING          zero instructions retired; per-KI metrics report 0\n")
	}
	fmt.Fprintf(out, "IPC              %.4f\n", st.IPC())
	if *sampled {
		switch {
		case sr.Exact:
			fmt.Fprintf(out, "sampling         exact fallback (program below the sampling floor)\n")
		case sr.Unbounded:
			fmt.Fprintf(out, "sampling         %d intervals — too few for an error bar (unbounded CI)\n", sr.Intervals)
		default:
			fmt.Fprintf(out, "sampling         IPC %.4f ± %.4f (%.0f%% CI, ±%.2f%%), %d intervals, %.2f%% detailed\n",
				sr.IPC(), sr.IPCErr, sr.Conf.Confidence*100, sr.RelErr()*100,
				sr.Intervals, 100*float64(sr.DetailedInsts)/float64(sr.TotalInsts))
		}
	}
	fmt.Fprintf(out, "MPKI             %.2f\n", st.MPKI())
	fmt.Fprintf(out, "flushes          %d (%.2f per KI)\n", st.Flushes, st.FlushesPerKI())
	fmt.Fprintf(out, "wrong-path fetch %d\n", st.WrongPathFetched)
	// The sampled projection scales only the headline counters (cycles,
	// mispredictions, flushes); the dpred session detail is not estimated.
	if *dmp && !*sampled {
		fmt.Fprintf(out, "dpred entries    %d (%d loop)\n", st.DpredEntries, st.DpredLoopEntries)
		fmt.Fprintf(out, "merged/no-merge  %d / %d\n", st.DpredMerged, st.DpredNoMerge)
		fmt.Fprintf(out, "saved flushes    %d\n", st.DpredSavedFlushes)
		fmt.Fprintf(out, "select-uops      %d\n", st.SelectUops)
		fmt.Fprintf(out, "pred-FALSE NOPs  %d\n", st.Nopped)
		fmt.Fprintf(out, "loop exits       late=%d early=%d no-exit=%d\n", st.LoopLateExit, st.LoopEarlyExit, st.LoopNoExit)
		fmt.Fprintf(out, "confidence       PVN=%.2f coverage=%.2f\n", st.ConfPVN, st.ConfCoverage)
	}
	fmt.Fprintf(out, "I$/D$/L2 miss%%   %.2f / %.2f / %.2f\n",
		st.ICache.MissRate()*100, st.DCache.MissRate()*100, st.L2.MissRate()*100)
	if *dmp && !*sampled {
		fmt.Fprintln(out)
		stats.RenderAudits(out, st.Audit, *auditTop)
	}
	snap := cache.Metrics()
	if cache.Dir() != "" {
		source := "simulated"
		if snap.DiskHits > 0 {
			source = "disk cache hit"
		}
		if snap.Bypasses > 0 {
			source = "simulated (cache bypassed: tracing)"
		}
		fmt.Fprintf(out, "cache            %s (%s=%s)\n", source, simcache.EnvDir, cache.Dir())
	}

	if *metricsJSON != "" {
		mout := io.Writer(out)
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			check(err)
			defer f.Close()
			mout = f
		}
		enc := json.NewEncoder(mout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Wall  time.Duration     `json:"wall_ns"`
			Cache simcache.Snapshot `json:"cache"`
			Audit trace.AuditTotals `json:"audit"`
		}{wall, snap, st.AuditTotals()}))
	}
}

// multiTracer fans one event out to several tracers (-trace plus -trace-json).
type multiTracer []trace.Tracer

func (m multiTracer) Event(e trace.Event) {
	for _, t := range m {
		t.Event(e)
	}
}

func readTape(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tape []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad tape value %q: %w", line, err)
		}
		tape = append(tape, v)
	}
	return tape, sc.Err()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpsim:", err)
		os.Exit(1)
	}
}
