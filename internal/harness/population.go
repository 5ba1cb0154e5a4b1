package harness

// Population-scale evaluation of generated corpora: run internal/gen
// programs end-to-end (compile → profile on the train tape → select → verify
// → simulate baseline and DMP on the run tape, memoized by the simulation
// cache), then aggregate baseline-vs-DMP IPC deltas per dominant CFG idiom,
// attributing each group's behaviour through the dpred-session audit. This
// is how the paper's Table 2/3 claims are checked on populations of programs
// instead of the 17 hand-written samples.

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/static"
	"dmp/internal/trace"
	"dmp/internal/verify"
	"dmp/internal/workpool"
)

// winThresholdPct separates wins/losses from noise: IPC deltas within this
// band count as flat.
const winThresholdPct = 0.5

// PopulationOptions configures a population run.
type PopulationOptions struct {
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// MaxInsts caps simulated instructions per run (0 = to completion;
	// generated programs terminate by construction).
	MaxInsts uint64
	// Cache memoizes simulations (nil = a fresh cache honouring
	// DMP_CACHE_DIR), so re-running a corpus after a selection change only
	// pays for the runs that actually changed.
	Cache *simcache.Cache
}

func (o PopulationOptions) withDefaults() PopulationOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Cache == nil {
		o.Cache = simcache.FromEnv()
	}
	return o
}

// ProgramResult is one generated program's baseline-vs-DMP outcome.
type ProgramResult struct {
	Name     string  `json:"name"`
	Preset   string  `json:"preset"`
	Idiom    string  `json:"idiom"`
	Annots   int     `json:"annots"` // diverge branches selected
	BaseIPC  float64 `json:"base_ipc"`
	DMPIPC   float64 `json:"dmp_ipc"`
	DeltaPct float64 `json:"delta_pct"`
	Retired  uint64  `json:"retired"`
	// Audit is the DMP run's dpred-session audit totals, the attribution
	// trail for the per-idiom report.
	Audit trace.AuditTotals `json:"audit"`
}

// IdiomGroup aggregates the results of one dominant-idiom class.
type IdiomGroup struct {
	Idiom string `json:"idiom"`
	N     int    `json:"n"`
	Wins  int    `json:"wins"`
	Loss  int    `json:"losses"`
	Flat  int    `json:"flat"`
	// MeanDeltaPct is the arithmetic mean IPC delta; GeoDeltaPct the
	// geometric mean of the speedup ratios, as the paper reports.
	MeanDeltaPct float64 `json:"mean_delta_pct"`
	GeoDeltaPct  float64 `json:"geo_delta_pct"`
	Best         string  `json:"best"`
	BestPct      float64 `json:"best_pct"`
	Worst        string  `json:"worst"`
	WorstPct     float64 `json:"worst_pct"`
	// Audit totals over the group's DMP runs, normalized per retired
	// kilo-instruction in the rendered table.
	Retired uint64            `json:"retired"`
	Audit   trace.AuditTotals `json:"audit"`
}

// PopulationReport is the full population outcome.
type PopulationReport struct {
	Count   int             `json:"count"`
	Algo    string          `json:"algo"`
	Results []ProgramResult `json:"results"`
	Groups  []IdiomGroup    `json:"groups"`
}

func popConfig(dmp bool, maxInsts uint64) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DMP = dmp
	cfg.MaxInsts = maxInsts
	return cfg
}

// RunPopulation evaluates a generated corpus: All-best-heur selection from
// the train-tape profile, baseline and DMP simulation on the run tape, one
// ProgramResult per program and one IdiomGroup per dominant idiom. When ctx
// ends, workers stop at the next program boundary and in-flight
// simulations abort at block-batch granularity, so a cancelled population
// run returns promptly without leaking goroutines or memoizing partial
// results.
func RunPopulation(ctx context.Context, progs []*gen.Program, opts PopulationOptions) (*PopulationReport, error) {
	opts = opts.withDefaults()
	rep := &PopulationReport{Count: len(progs), Algo: "All-best-heur"}
	rep.Results = make([]ProgramResult, len(progs))
	name := func(i int) string { return progs[i].Name }
	err := workpool.RunIndexed(ctx, len(progs), opts.Parallelism, name, nil, func(i int) error {
		r, err := EvalGenerated(ctx, progs[i], "heur", EvalOptions{Cache: opts.Cache, MaxInsts: opts.MaxInsts})
		if err != nil {
			return fmt.Errorf("%s: %w", progs[i].Name, err)
		}
		rep.Results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Groups = groupByIdiom(rep.Results)
	return rep, nil
}

// EvalOptions configures one single-program evaluation (EvalSource /
// EvalGenerated) — the unit of work a serve daemon job executes.
type EvalOptions struct {
	// Cache memoizes the two simulations (nil = run uncached).
	Cache *simcache.Cache
	// MaxInsts caps simulated instructions per run (0 = to completion).
	MaxInsts uint64
	// Tracer, when non-nil, receives the DMP and baseline runs' pipeline
	// events; traced runs bypass memoization (see simcache.Cache.Run).
	Tracer trace.Tracer
	// Progress, when non-nil, is called at each phase transition with one
	// of "compile", "profile", "select", "baseline", "dmp".
	Progress func(phase string)
	// Sample, when Enabled, routes the baseline and DMP simulations through
	// the SMARTS sampled executor; the reported IPCs are the estimates
	// projected through sample.Result.AsStats. Sampled runs are memoized
	// under conf-extended keys, disjoint from full-fidelity entries.
	Sample sample.SampleConf
}

func (o EvalOptions) note(phase string) {
	if o.Progress != nil {
		o.Progress(phase)
	}
}

// EvalGenerated evaluates one generated program end-to-end with the given
// selection algorithm (see popAlgoNames): compile, profile on the train
// tape, select, verify, simulate baseline and DMP on the run tape.
func EvalGenerated(ctx context.Context, p *gen.Program, algo string, opts EvalOptions) (ProgramResult, error) {
	r, err := EvalSource(ctx, p.Name, p.Source, p.RunInput, p.TrainInput, algo, opts)
	r.Preset, r.Idiom = p.Preset, p.Idiom
	return r, err
}

// EvalSource evaluates one DML source end-to-end: compile, profile on the
// train tape, select with the named algorithm, verify the annotations, and
// simulate baseline and DMP on the run tape (memoized when opts.Cache is
// set). Cancelling ctx aborts between phases, mid-profile and
// mid-simulation. The profiling run is bounded by opts.MaxInsts — or by
// popEmuBudget when unset — so a source program that never halts on its
// train tape truncates instead of hanging the caller.
func EvalSource(ctx context.Context, name, source string, runInput, trainInput []int64, algo string, opts EvalOptions) (ProgramResult, error) {
	var r ProgramResult
	prep, err := PrepareSource(ctx, name, source, runInput, trainInput, algo, opts)
	if err != nil {
		return r, err
	}
	opts.note("baseline")
	base, err := prep.Simulate(ctx, popConfig(false, opts.MaxInsts), opts)
	if err != nil {
		return r, fmt.Errorf("baseline: %w", err)
	}
	opts.note("dmp")
	dmp, err := prep.Simulate(ctx, popConfig(true, opts.MaxInsts), opts)
	if err != nil {
		return r, fmt.Errorf("dmp: %w", err)
	}
	return ProgramResult{
		Name:     name,
		Annots:   prep.Annots,
		BaseIPC:  base.IPC(),
		DMPIPC:   dmp.IPC(),
		DeltaPct: Improvement(base, dmp),
		Retired:  dmp.Retired,
		Audit:    dmp.AuditTotals(),
	}, nil
}

func groupByIdiom(results []ProgramResult) []IdiomGroup {
	byIdiom := map[string]*IdiomGroup{}
	ratios := map[string][]float64{}
	for _, r := range results {
		g := byIdiom[r.Idiom]
		if g == nil {
			g = &IdiomGroup{Idiom: r.Idiom, BestPct: math.Inf(-1), WorstPct: math.Inf(1)}
			byIdiom[r.Idiom] = g
		}
		g.N++
		switch {
		case r.DeltaPct > winThresholdPct:
			g.Wins++
		case r.DeltaPct < -winThresholdPct:
			g.Loss++
		default:
			g.Flat++
		}
		g.MeanDeltaPct += r.DeltaPct
		if r.BaseIPC > 0 && r.DMPIPC > 0 {
			ratios[r.Idiom] = append(ratios[r.Idiom], r.DMPIPC/r.BaseIPC)
		}
		if r.DeltaPct > g.BestPct {
			g.BestPct, g.Best = r.DeltaPct, r.Name
		}
		if r.DeltaPct < g.WorstPct {
			g.WorstPct, g.Worst = r.DeltaPct, r.Name
		}
		g.Retired += r.Retired
		g.Audit.Merge(r.Audit)
	}
	out := make([]IdiomGroup, 0, len(byIdiom))
	for idiom, g := range byIdiom {
		g.MeanDeltaPct /= float64(g.N)
		if rs := ratios[idiom]; len(rs) > 0 {
			logSum := 0.0
			for _, v := range rs {
				logSum += math.Log(v)
			}
			g.GeoDeltaPct = (math.Exp(logSum/float64(len(rs))) - 1) * 100
		}
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanDeltaPct != out[j].MeanDeltaPct {
			return out[i].MeanDeltaPct > out[j].MeanDeltaPct
		}
		return out[i].Idiom < out[j].Idiom
	})
	return out
}

// Render writes the per-idiom win/loss table. The audit-derived columns
// attribute each group's outcome: sessions entered and flushes saved per
// retired kilo-instruction, the fraction of forward sessions that merged at
// a CFM, and dpred cycles wasted per kilo-instruction.
func (rep *PopulationReport) Render(w io.Writer) {
	fmt.Fprintf(w, "population: %d programs, selection %s\n", rep.Count, rep.Algo)
	fmt.Fprintf(w, "%-16s%6s%6s%6s%6s%9s%9s%9s%9s%9s%10s  %s\n",
		"idiom", "n", "win", "loss", "flat", "mean%", "geo%",
		"ent/KI", "merged%", "svfl/KI", "waste/KI", "best/worst")
	perKI := func(v uint64, retired uint64) float64 {
		if retired == 0 {
			return 0
		}
		return float64(v) / float64(retired) * 1000
	}
	for _, g := range rep.Groups {
		mergedPct := 0.0
		if fwd := g.Audit.Merged + g.Audit.Fallback + g.Audit.FlushCancelled; fwd > 0 {
			mergedPct = float64(g.Audit.Merged) / float64(fwd) * 100
		}
		wastePerKI := 0.0
		if g.Retired > 0 {
			wastePerKI = float64(g.Audit.WastedCycles) / float64(g.Retired) * 1000
		}
		fmt.Fprintf(w, "%-16s%6d%6d%6d%6d%+9.2f%+9.2f%9.2f%9.1f%9.2f%10.1f  %s %+.1f%% / %s %+.1f%%\n",
			g.Idiom, g.N, g.Wins, g.Loss, g.Flat, g.MeanDeltaPct, g.GeoDeltaPct,
			perKI(g.Audit.Entered, g.Retired), mergedPct,
			perKI(g.Audit.SavedFlushes, g.Retired), wastePerKI,
			g.Best, g.BestPct, g.Worst, g.WorstPct)
	}
	var wins, losses, flat int
	var mean float64
	for _, g := range rep.Groups {
		wins += g.Wins
		losses += g.Loss
		flat += g.Flat
		mean += g.MeanDeltaPct * float64(g.N)
	}
	if rep.Count > 0 {
		mean /= float64(rep.Count)
	}
	fmt.Fprintf(w, "%-16s%6d%6d%6d%6d%+9.2f\n", "total", rep.Count, wins, losses, flat, mean)
}

// popEmuBudget backstops the reference interpreter on generated programs
// (which terminate by construction, with statically bounded cost).
const popEmuBudget = 200_000_000

// popAlgoNames lists the 8 selection algorithms CheckGenerated sweeps.
var popAlgoNames = []string{
	"heur", "cost-long", "cost-edge",
	"every", "random50", "highbp", "immediate", "ifelse",
}

// Algos returns the selection-algorithm names accepted by EvalSource,
// EvalGenerated and popSelect.
func Algos() []string { return append([]string(nil), popAlgoNames...) }

// KnownAlgo reports whether name is a valid selection-algorithm name.
func KnownAlgo(name string) bool {
	for _, a := range popAlgoNames {
		if a == name {
			return true
		}
	}
	return false
}

func popSelect(prog *isa.Program, prof *profile.Profile, algo string) (map[int]*isa.DivergeInfo, error) {
	switch algo {
	case "heur":
		r, err := core.Select(prog, prof, core.HeuristicParams())
		if err != nil {
			return nil, err
		}
		return r.Annots, nil
	case "cost-long":
		r, err := core.Select(prog, prof, core.CostParams(core.LongestPath))
		if err != nil {
			return nil, err
		}
		return r.Annots, nil
	case "cost-edge":
		r, err := core.Select(prog, prof, core.CostParams(core.EdgeWeighted))
		if err != nil {
			return nil, err
		}
		return r.Annots, nil
	}
	var b core.Baseline
	switch algo {
	case "every":
		b = core.EveryBranch
	case "random50":
		b = core.Random50
	case "highbp":
		b = core.HighBP5
	case "immediate":
		b = core.Immediate
	case "ifelse":
		b = core.IfElse
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	r, err := core.SelectBaseline(prog, prof, b, 1)
	if err != nil {
		return nil, err
	}
	return r.Annots, nil
}

// CheckGenerated runs one generated program through the full quality gate —
// compile, static verification of the bare binary and of every selection
// algorithm's annotations, and an emu-vs-pipeline architectural differential
// for both the baseline and the DMP machine — returning a list of findings
// (empty = clean). cmd/dmpgen -check and the population differential test
// share this path.
func CheckGenerated(p *gen.Program) []string {
	return checkGenerated(p, false)
}

// CheckGeneratedStatic is CheckGenerated with the profile source replaced by
// a static estimate (static.Analyze): every selection algorithm runs
// completely profile-free, its artifacts are verified, and the DMP binary
// selected from the estimate goes through the same emu-vs-pipeline
// differential. cmd/dmpgen -check -static and the static population
// differential test share this path.
func CheckGeneratedStatic(p *gen.Program) []string {
	return checkGenerated(p, true)
}

func checkGenerated(p *gen.Program, useStatic bool) []string {
	var issues []string
	prog, err := codegen.CompileSource(p.Source)
	if err != nil {
		return []string{fmt.Sprintf("compile: %v", err)}
	}
	for _, d := range verify.Run(prog.WithAnnots(nil), verify.Options{Program: p.Name + "/bare"}) {
		issues = append(issues, d.String())
	}
	var prof *profile.Profile
	if useStatic {
		est, err := static.Analyze(prog, static.Options{Program: p.Name + "/static"})
		if err != nil {
			return append(issues, fmt.Sprintf("static estimate: %v", err))
		}
		prof = est.Prof
	} else {
		prof, err = profile.Collect(prog, p.TrainInput, profile.Options{MaxInsts: popEmuBudget})
		if err != nil {
			return append(issues, fmt.Sprintf("profile: %v", err))
		}
	}
	var heurAnnots map[int]*isa.DivergeInfo
	for _, algo := range popAlgoNames {
		annots, err := popSelect(prog, prof, algo)
		if err != nil {
			issues = append(issues, fmt.Sprintf("%s: select: %v", algo, err))
			continue
		}
		if algo == "heur" {
			heurAnnots = annots
		}
		for _, d := range verify.Run(prog.WithAnnots(annots), verify.Options{Program: p.Name + "/" + algo}) {
			issues = append(issues, d.String())
		}
	}

	ref := emu.New(prog, p.RunInput, 0)
	if _, err := ref.Run(popEmuBudget); err != nil {
		return append(issues, fmt.Sprintf("reference emulator: %v", err))
	}
	issues = append(issues, diffPipeline("baseline", prog.WithAnnots(nil), p.RunInput, ref)...)
	if len(heurAnnots) > 0 {
		issues = append(issues, diffPipeline("dmp", prog.WithAnnots(heurAnnots), p.RunInput, ref)...)
	}
	return issues
}

// diffPipeline checks the cycle-level simulator's architectural transparency
// against a finished reference emulator run.
func diffPipeline(label string, prog *isa.Program, input []int64, ref *emu.Machine) []string {
	sim := pipeline.New(prog, input, popConfig(len(prog.Annots) > 0, 0))
	st, err := sim.Run(context.Background())
	if err != nil {
		return []string{fmt.Sprintf("%s: pipeline: %v", label, err)}
	}
	var issues []string
	if st.Retired != ref.Retired {
		issues = append(issues, fmt.Sprintf("%s: retired %d instructions, reference retired %d",
			label, st.Retired, ref.Retired))
	}
	got := sim.Machine().Output
	if len(got) != len(ref.Output) {
		return append(issues, fmt.Sprintf("%s: %d output values, reference %d", label, len(got), len(ref.Output)))
	}
	for i := range got {
		if got[i] != ref.Output[i] {
			return append(issues, fmt.Sprintf("%s: output[%d] = %d, reference %d", label, i, got[i], ref.Output[i]))
		}
	}
	return issues
}
