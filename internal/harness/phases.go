package harness

// Phase-split evaluation: the sweep engine needs compile → profile → select →
// verify to run once per program while the simulate phase fans out over many
// machine configurations. Prepared is the config-invariant artifact bundle
// those phases produce; Simulate is the per-cell phase. EvalSource composes
// the two, so the monolithic path and the sweep engine cannot drift apart.

import (
	"context"
	"fmt"

	"dmp/internal/codegen"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/verify"
)

// Prepared holds one program's config-invariant evaluation artifacts: the
// compiled bare binary, the annotated binary selected from the train-tape
// profile, and the run tape. The two binaries share one code segment
// (WithAnnots), so predecoding (predecode.Shared) and simcache program
// hashing are paid once regardless of how many configurations simulate them.
// A Prepared is immutable after construction and safe to simulate from many
// goroutines concurrently.
type Prepared struct {
	Name   string
	Preset string
	Idiom  string
	// Bare is the un-annotated baseline binary; Annotated carries the
	// diverge-branch annotations the selection algorithm chose. Simulate
	// picks between them by Config.DMP.
	Bare      *isa.Program
	Annotated *isa.Program
	// Annots is the number of diverge branches selected.
	Annots int
	// RunInput is the tape the simulate phase consumes.
	RunInput []int64
}

// PrepareSource runs the config-invariant phases for one DML source: compile,
// profile on the train tape, select with the named algorithm, verify the
// annotations. opts.Progress is noted at "compile", "profile" and "select";
// opts.MaxInsts bounds the profiling run (popEmuBudget when unset). None of
// these phases reads a pipeline.Config: their artifacts are valid for every
// cell of a configuration grid.
func PrepareSource(ctx context.Context, name, source string, runInput, trainInput []int64, algo string, opts EvalOptions) (*Prepared, error) {
	if algo == "" {
		algo = "heur"
	}
	if trainInput == nil {
		trainInput = runInput
	}
	opts.note("compile")
	prog, err := codegen.CompileSource(source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.note("profile")
	profBudget := opts.MaxInsts
	if profBudget == 0 {
		profBudget = popEmuBudget
	}
	prof, err := profile.CollectCtx(ctx, prog, trainInput, profile.Options{MaxInsts: profBudget})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.note("select")
	annots, err := popSelect(prog, prof, algo)
	if err != nil {
		return nil, fmt.Errorf("select %s: %w", algo, err)
	}
	annotated := prog.WithAnnots(annots)
	if err := verify.CheckAnnots(annotated, name); err != nil {
		return nil, err
	}
	return &Prepared{
		Name:      name,
		Bare:      prog.WithAnnots(nil),
		Annotated: annotated,
		Annots:    len(annots),
		RunInput:  runInput,
	}, nil
}

// PrepareGenerated is PrepareSource for a generated program, carrying its
// preset and idiom attribution through to the result.
func PrepareGenerated(ctx context.Context, p *gen.Program, algo string, opts EvalOptions) (*Prepared, error) {
	pr, err := PrepareSource(ctx, p.Name, p.Source, p.RunInput, p.TrainInput, algo, opts)
	if err != nil {
		return nil, err
	}
	pr.Preset, pr.Idiom = p.Preset, p.Idiom
	return pr, nil
}

// Simulate runs the per-cell phase: one simulation of the prepared program
// under cfg, choosing the annotated binary when cfg.DMP is set and the bare
// binary otherwise, memoized through opts.Cache and routed through the
// sampled executor when opts.Sample is enabled. opts.Tracer, when set,
// overrides cfg's hook (and bypasses memoization, per the cache contract).
func (p *Prepared) Simulate(ctx context.Context, cfg pipeline.Config, opts EvalOptions) (pipeline.Stats, error) {
	prog := p.Bare
	if cfg.DMP {
		prog = p.Annotated
	}
	if opts.Tracer != nil {
		cfg.Tracer = opts.Tracer
	}
	return simulate(ctx, opts.Cache, opts.Sample, nil, prog, p.RunInput, cfg)
}
