// Dmpgen emits corpora of generated DML benchmarks (source + input tapes +
// manifest) and runs population-scale evaluations over them.
//
// Usage:
//
//	dmpgen -presets                          list the built-in ProgramConf presets
//	dmpgen [-preset P | -conf file] [-n N] [-seed S] [-out dir]
//	       [-manifest file|-] [-check] [-report file|-] [-p N] [-max N]
//	dmpgen -rebuild dir/manifest.json ...    regenerate a corpus from its manifest
//
// Programs are byte-reproducible from (conf, seed): the manifest records the
// generator's seed-compatibility version, every conf, and per-program seeds
// and source hashes, so `-rebuild` re-derives the exact corpus (and fails
// loudly on generator drift). -preset takes one preset, a comma-separated
// list, or "all"; programs are distributed round-robin across the confs.
// -conf reads one conf (or an array of confs) as JSON instead.
//
// -check runs every program through the full quality gate (static
// verification of all 8 selection algorithms' artifacts plus the
// emu-vs-pipeline differential for baseline and DMP); with -static the gate
// selects from a static profile estimate (internal/static) instead of the
// train-tape profile, exercising the profile-free path. -report runs the
// population evaluation — profile on the train tape, All-best-heur
// selection, baseline and DMP simulation on the run tape, memoized by the
// simulation cache (DMP_CACHE_DIR) — and renders the per-idiom win/loss
// table ("-" = stdout). Exit status is 0 on success, 1 when -check finds
// issues, 2 on usage or I/O errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dmp/internal/gen"
	"dmp/internal/harness"
)

func main() {
	listPresets := flag.Bool("presets", false, "list built-in presets and exit")
	preset := flag.String("preset", "mixed", "preset name, comma-separated list, or \"all\"")
	confFile := flag.String("conf", "", "read ProgramConf JSON (object or array) instead of -preset")
	n := flag.Int("n", 100, "number of programs to generate")
	seed := flag.Uint64("seed", 1, "base seed (program i uses seed+i)")
	out := flag.String("out", "", "write <name>.dml, <name>.run.in, <name>.train.in and manifest.json to this directory")
	manifest := flag.String("manifest", "", "write the corpus manifest to this file (\"-\" = stdout)")
	rebuild := flag.String("rebuild", "", "regenerate the corpus from an existing manifest (overrides -preset/-conf/-n/-seed)")
	check := flag.Bool("check", false, "verify + differential-run every generated program")
	useStatic := flag.Bool("static", false, "with -check: select from static profile estimates instead of the train-tape profile")
	report := flag.String("report", "", "run the population evaluation and write the per-idiom report (\"-\" = stdout)")
	par := flag.Int("p", 0, "parallelism for -check/-report (0 = GOMAXPROCS)")
	maxInsts := flag.Uint64("max", 0, "cap simulated instructions per -report run (0 = to completion)")
	flag.Parse()
	if flag.NArg() > 0 {
		die("unexpected arguments: " + strings.Join(flag.Args(), " "))
	}

	if *listPresets {
		for _, c := range gen.Presets() {
			fmt.Printf("%-16s hammock w=%d depth<=%d short=%.0f%% diamond=%.0f%% | loop w=%d trips=[%d,%d] break=%.0f%% | bias %v\n",
				c.Name, c.HammockWeight, c.MaxHammockDepth, c.ShortHammockProb*100, c.DiamondProb*100,
				c.LoopWeight, c.LoopTrip.Min, c.LoopTrip.Max, c.BreakProb*100, c.BiasTargets)
		}
		return
	}

	var confs []gen.ProgramConf
	var progs []*gen.Program
	baseSeed := *seed
	switch {
	case *rebuild != "":
		f, err := os.Open(*rebuild)
		check2(err)
		m, err := gen.ReadManifest(f)
		f.Close()
		check2(err)
		progs, err = m.Rebuild()
		check2(err)
		confs, baseSeed = m.Presets, m.BaseSeed
		fmt.Fprintf(os.Stderr, "dmpgen: rebuilt %d programs from %s (hashes verified)\n", len(progs), *rebuild)
	case *confFile != "":
		confs = readConfs(*confFile)
	default:
		confs = resolvePresets(*preset)
	}
	for _, c := range confs {
		check2(c.Validate())
	}
	if progs == nil {
		if *n <= 0 {
			die("-n must be positive")
		}
		progs = gen.BuildCorpus(confs, *n, baseSeed)
	}
	m := gen.NewManifest(confs, baseSeed, progs)

	if *out != "" {
		writeCorpus(*out, m, progs)
		fmt.Fprintf(os.Stderr, "dmpgen: wrote %d programs to %s\n", len(progs), *out)
	}
	if *manifest != "" {
		w := os.Stdout
		if *manifest != "-" {
			f, err := os.Create(*manifest)
			check2(err)
			defer f.Close()
			w = f
		}
		check2(m.Write(w))
	}

	if *check {
		if bad := checkCorpus(progs, *par, *useStatic); bad > 0 {
			fmt.Fprintf(os.Stderr, "dmpgen: %d/%d programs failed the quality gate\n", bad, len(progs))
			os.Exit(1)
		}
		src := "train profile"
		if *useStatic {
			src = "static estimate"
		}
		fmt.Fprintf(os.Stderr, "dmpgen: %d programs verified clean (8 algorithms from %s + emu/pipeline differential)\n", len(progs), src)
	}
	if *report != "" {
		rep, err := harness.RunPopulation(context.Background(), progs, harness.PopulationOptions{
			Parallelism: *par, MaxInsts: *maxInsts,
		})
		check2(err)
		w := os.Stdout
		if *report != "-" {
			f, err := os.Create(*report)
			check2(err)
			defer f.Close()
			w = f
		}
		rep.Render(w)
	}
}

func resolvePresets(spec string) []gen.ProgramConf {
	if spec == "all" {
		return gen.Presets()
	}
	var confs []gen.ProgramConf
	for _, name := range strings.Split(spec, ",") {
		c, ok := gen.Preset(strings.TrimSpace(name))
		if !ok {
			die(fmt.Sprintf("unknown preset %q (have: %s)", name, strings.Join(gen.PresetNames(), ", ")))
		}
		confs = append(confs, c)
	}
	return confs
}

// readConfs parses a single conf object or an array of confs.
func readConfs(path string) []gen.ProgramConf {
	data, err := os.ReadFile(path)
	check2(err)
	var many []gen.ProgramConf
	if err := json.Unmarshal(data, &many); err == nil {
		return many
	}
	var one gen.ProgramConf
	if err := json.Unmarshal(data, &one); err != nil {
		die(fmt.Sprintf("%s: not a ProgramConf or array of them: %v", path, err))
	}
	return []gen.ProgramConf{one}
}

func writeCorpus(dir string, m *gen.Manifest, progs []*gen.Program) {
	check2(os.MkdirAll(dir, 0o755))
	for _, p := range progs {
		check2(os.WriteFile(filepath.Join(dir, p.Name+".dml"), []byte(p.Source), 0o644))
		check2(os.WriteFile(filepath.Join(dir, p.Name+".run.in"), tapeText(p.RunInput), 0o644))
		check2(os.WriteFile(filepath.Join(dir, p.Name+".train.in"), tapeText(p.TrainInput), 0o644))
	}
	f, err := os.Create(filepath.Join(dir, "manifest.json"))
	check2(err)
	defer f.Close()
	check2(m.Write(f))
}

// tapeText renders an input tape in the one-integer-per-line format dmplint
// -in and dmpsim consume.
func tapeText(tape []int64) []byte {
	var sb strings.Builder
	for _, v := range tape {
		fmt.Fprintf(&sb, "%d\n", v)
	}
	return []byte(sb.String())
}

func checkCorpus(progs []*gen.Program, par int, useStatic bool) int {
	if par <= 0 {
		par = 8
	}
	gate := harness.CheckGenerated
	if useStatic {
		gate = harness.CheckGeneratedStatic
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var mu sync.Mutex
	bad := 0
	for _, p := range progs {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *gen.Program) {
			defer wg.Done()
			defer func() { <-sem }()
			if issues := gate(p); len(issues) > 0 {
				mu.Lock()
				bad++
				fmt.Fprintf(os.Stderr, "dmpgen: %s (seed %d):\n  %s\n", p.Name, p.Seed, strings.Join(issues, "\n  "))
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return bad
}

func die(msg string) {
	fmt.Fprintln(os.Stderr, "dmpgen:", msg)
	os.Exit(2)
}

func check2(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmpgen:", err)
		os.Exit(2)
	}
}
