// Dmpbench regenerates the paper's evaluation: Tables 1-2 and Figures 5-10.
//
// Usage:
//
//	dmpbench [-exp all|table1|table2|fig5left|fig5right|fig6|fig7|fig8|fig9|fig10|population|static|sample-error]
//	         [-bench gzip,vpr,...] [-scale N] [-max N] [-p N]
//	         [-sample] [-sample-period N] [-sample-interval N] [-sample-warmup N]
//	         [-sample-seed S] [-sample-shards N]
//	         [-gen-preset all|P,Q] [-gen-n N] [-gen-seed S]
//	         [-metrics-json file] [-pprof addr] [-cpuprofile file] [-memprofile file]
//
// Each experiment prints a text table with one column per benchmark and an
// arithmetic-mean summary column. Expect the full evaluation to take a few
// minutes: it runs hundreds of cycle-level simulations. Identical
// simulations are memoized — within the process, and across invocations
// when the DMP_CACHE_DIR environment variable names a cache directory — and
// a run-metrics footer (cache hit rate, simulator throughput, worker-pool
// occupancy, per-experiment wall time) is printed after the experiments.
// -metrics-json writes the same metrics as JSON ("-" for stdout), including
// the session's aggregate dpred-session audit and any degenerate (zero
// retired instructions) runs.
//
// -exp population evaluates a generated corpus instead of the paper's 17
// hand-written benchmarks: it builds -gen-n programs from the -gen-preset
// ProgramConf presets (seed-reproducible; see cmd/dmpgen for corpus export)
// and prints the per-idiom baseline-vs-DMP win/loss table. It is excluded
// from -exp all, which keeps reproducing the paper tables only.
//
// -exp static runs the three-way profile-source comparison on a generated
// corpus: All-best-heur selection from a static estimate (internal/static, no
// input tape), from the train-tape profile, and from the oracle run-tape
// profile, all simulated on the run tape against a shared baseline. The
// per-idiom table reports the three mean IPC deltas, static win/loss
// classification, dpred-session audit attribution, and the estimate's
// accuracy (per-branch bias error, block-frequency rank correlation). When
// -gen-n is left at its default, -exp static evaluates 500 programs.
//
// -sample routes every simulation through the SMARTS sampled executor
// (internal/sample): functional fast-forward between short detailed
// measurement intervals, reporting each run's IPC estimate with a
// confidence interval instead of simulating every instruction. The run
// metrics footer gains a sampling line (detailed-instruction share, error
// bars); the -sample-* flags override the default configuration. -exp
// sample-error runs the differential gate instead: every benchmark at full
// fidelity and sampled, baseline and DMP, plus a generated population of
// -gen-n programs, reporting per-row CI coverage and the aggregate
// wall-clock speedup.
//
// For performance investigation, -pprof serves net/http/pprof on the given
// address while the evaluation runs, and -cpuprofile/-memprofile write
// runtime/pprof profiles to files.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/sample"
	"dmp/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig5left, fig5right, fig6, fig7, fig8, fig9, fig10, population, static, sample-error")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 17)")
	scale := flag.Int("scale", 1, "input scale factor")
	maxInsts := flag.Uint64("max", 0, "cap simulated instructions per run (0 = full)")
	par := flag.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
	sampled := flag.Bool("sample", false, "run simulations through the SMARTS sampled executor")
	sampPeriod := flag.Uint64("sample-period", 0, "sampling period in instructions (0 = default)")
	sampInterval := flag.Uint64("sample-interval", 0, "detailed measurement interval length (0 = default)")
	sampWarmup := flag.Uint64("sample-warmup", 0, "detailed warmup length before each interval (0 = default)")
	sampSeed := flag.Uint64("sample-seed", 0, "stratified placement seed (0 = default)")
	sampShards := flag.Int("sample-shards", 0, "parallel interval shards per sampled run (0/1 = streaming)")
	genPreset := flag.String("gen-preset", "all", "-exp population: preset name, comma-separated list, or \"all\"")
	genN := flag.Int("gen-n", 200, "-exp population: corpus size")
	genSeed := flag.Uint64("gen-seed", 1, "-exp population: base seed")
	metricsJSON := flag.String("metrics-json", "", "write run metrics as JSON to this file (\"-\" = stdout)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dmpbench: pprof server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			defer f.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
		}()
	}

	sc := sample.DefaultConf()
	if *sampPeriod != 0 {
		sc.Period = *sampPeriod
	}
	if *sampInterval != 0 {
		sc.Interval = *sampInterval
	}
	if *sampWarmup != 0 {
		sc.Warmup = *sampWarmup
	}
	if *sampSeed != 0 {
		sc.Seed = *sampSeed
	}
	if *sampShards > 1 {
		sc.Shards = *sampShards
	}
	check(sc.Validate())

	opts := harness.Options{Scale: *scale, MaxInsts: *maxInsts, Parallelism: *par}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	if *sampled {
		opts.Sample = sc
	}

	// The sample-error differential simulates each workload both ways itself,
	// so the session it builds stays in full-fidelity mode.
	if *exp == "sample-error" {
		t0 := time.Now()
		fmt.Fprintln(os.Stderr, "dmpbench: preparing workloads (compile + profile)...")
		s, err := harness.NewSession(opts)
		check(err)
		tbl, rep, err := harness.SampleError(s, sc)
		check(err)
		tbl.Render(os.Stdout)
		rep.Render(os.Stdout)
		progs := gen.BuildCorpus(gen.Presets(), *genN, *genSeed)
		prep, err := harness.SampleErrorPopulation(context.Background(), progs, sc, *par)
		check(err)
		fmt.Printf("population (%d generated programs):\n", len(progs))
		prep.Render(os.Stdout)
		fmt.Printf("(sample-error in %v)\n", time.Since(t0).Round(time.Millisecond))
		if len(rep.Misses)+len(prep.Misses) > 0 {
			check(fmt.Errorf("%d rows outside their confidence intervals", len(rep.Misses)+len(prep.Misses)))
		}
		return
	}

	// The population experiments evaluate a generated corpus and need no
	// paper-benchmark session; they are opt-in rather than part of -exp all.
	if *exp == "population" || *exp == "static" {
		var confs []gen.ProgramConf
		if *genPreset == "all" {
			confs = gen.Presets()
		} else {
			for _, name := range strings.Split(*genPreset, ",") {
				c, ok := gen.Preset(strings.TrimSpace(name))
				if !ok {
					check(fmt.Errorf("unknown preset %q", name))
				}
				confs = append(confs, c)
			}
		}
		n := *genN
		if *exp == "static" && !flagSet("gen-n") {
			// The three-way table is a population claim; default to the
			// 500-program scale the experiment tables commit to.
			n = 500
		}
		t0 := time.Now()
		progs := gen.BuildCorpus(confs, n, *genSeed)
		popOpts := harness.PopulationOptions{Parallelism: *par, MaxInsts: *maxInsts}
		if *exp == "static" {
			rep, err := harness.RunPopulationCompare(context.Background(), progs, popOpts)
			check(err)
			rep.Render(os.Stdout)
		} else {
			rep, err := harness.RunPopulation(context.Background(), progs, popOpts)
			check(err)
			rep.Render(os.Stdout)
		}
		fmt.Printf("(%s in %v)\n", *exp, time.Since(t0).Round(time.Millisecond))
		return
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		harness.Table1(os.Stdout)
		fmt.Println()
		if *exp == "table1" {
			return
		}
	}

	start := time.Now()
	fmt.Fprintln(os.Stderr, "dmpbench: preparing workloads (compile + profile)...")
	s, err := harness.NewSession(opts)
	check(err)
	fmt.Fprintf(os.Stderr, "dmpbench: %d workloads ready in %v\n", len(s.Workloads), time.Since(start).Round(time.Millisecond))

	run := func(name string, fn func(*harness.Session) (*stats.Table, error)) {
		if !want(name) {
			return
		}
		t0 := time.Now()
		tbl, err := fn(s)
		check(err)
		wall := time.Since(t0)
		s.NoteExperiment(name, wall)
		tbl.Render(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", name, wall.Round(time.Millisecond))
	}

	run("table2", harness.Table2)
	run("fig5left", harness.Fig5Left)
	run("fig5right", harness.Fig5Right)
	run("fig6", harness.Fig6)
	run("fig7", func(s *harness.Session) (*stats.Table, error) { return harness.Fig7(s, nil, nil) })
	run("fig8", harness.Fig8)
	run("fig9", harness.Fig9)
	run("fig10", harness.Fig10)

	m := s.Metrics()
	m.Footer(os.Stdout)
	if *metricsJSON != "" {
		out := os.Stdout
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			check(err)
			defer f.Close()
			out = f
		}
		check(m.WriteJSON(out))
	}
}

// flagSet reports whether the named flag was passed explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpbench:", err)
		os.Exit(1)
	}
}
