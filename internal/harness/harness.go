// Package harness orchestrates the paper's evaluation: it compiles the
// benchmark corpus, collects profiles, runs the selection algorithms, drives
// the cycle-level simulator, and regenerates every table and figure of the
// evaluation section (Tables 1-2, Figures 5-10).
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/trace"
	"dmp/internal/verify"
	"dmp/internal/workpool"
)

// Options configures a harness session.
type Options struct {
	// Scale multiplies every benchmark's input size (1 = default).
	Scale int
	// MaxInsts caps the simulated instructions per run (0 = to completion).
	MaxInsts uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Benchmarks restricts the corpus (nil = all).
	Benchmarks []string
	// Cache memoizes simulations across experiments (nil = a fresh cache
	// honouring DMP_CACHE_DIR; see internal/simcache).
	Cache *simcache.Cache
	// Tracer, when non-nil, receives structured pipeline events from every
	// simulation the session runs (internal/trace). It must be safe for
	// concurrent use — simulations run in parallel — and it disables
	// memoization for the session's runs (see simcache.Cache.Run), so it
	// is meant for debugging sweeps, not full evaluations.
	Tracer trace.Tracer
	// Ctx, when non-nil, cancels the session's runs: pooled workers stop at
	// the next task boundary, and every simulation (Baseline, RunDMP) aborts
	// at block-batch granularity (see pipeline.Sim.Run) without being
	// memoized.
	Ctx context.Context
	// Sample, when Enabled, routes every simulation through the SMARTS
	// sampled executor (internal/sample) instead of full fidelity: each
	// Stats the session reports is the sampled estimate projected through
	// Result.AsStats, and the per-run error bars are aggregated into the
	// metrics report's sampling block. Sampled runs are memoized under
	// conf-extended cache keys, disjoint from full-fidelity entries.
	Sample sample.SampleConf
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Cache == nil {
		o.Cache = simcache.FromEnv()
	}
	return o
}

// Workload is one prepared benchmark: compiled binary, both input tapes and
// both profiles.
type Workload struct {
	Bench     *bench.Benchmark
	Prog      *isa.Program
	RunInput  []int64
	TrainIn   []int64
	ProfRun   *profile.Profile
	ProfTrain *profile.Profile

	opts Options
	sess *Session
	// baseMu pins the baseline result once computed. A plain mutex instead
	// of sync.Once: a run aborted by context cancellation must not be
	// pinned, or the workload would stay poisoned for every later caller.
	baseMu   sync.Mutex
	baseDone bool
	base     pipeline.Stats
	baseErr  error
}

// Session holds prepared workloads and shared options.
type Session struct {
	Workloads []*Workload
	Opts      Options

	pool  poolCounters
	expMu sync.Mutex
	exps  []ExperimentMetric

	// runMu guards the per-run aggregates below (dpred-session audit
	// totals and degenerate-run diagnostics), surfaced by Metrics.
	runMu      sync.Mutex
	dmpRuns    uint64
	sessTotals trace.AuditTotals
	degenRuns  uint64
	degenNames map[string]bool
	sampAgg    sampleAgg

	// startMallocs is the process-wide heap-allocation count at session
	// creation; Metrics reports the delta as the session's allocation cost
	// (the numerator of allocs-per-kilo-instruction).
	startMallocs uint64
}

// noteRun folds one simulation result into the session aggregates: DMP runs
// contribute their session audit, and any run that retired zero instructions
// (per-kilo-instruction metrics meaningless) is recorded as degenerate so
// the metrics report can flag it instead of averaging silent zeros.
func (s *Session) noteRun(name string, st pipeline.Stats, dmp bool) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if dmp {
		s.dmpRuns++
		s.sessTotals.Add(st.Audit)
	}
	if st.Degenerate() {
		s.degenRuns++
		if s.degenNames == nil {
			s.degenNames = map[string]bool{}
		}
		s.degenNames[name] = true
	}
}

// Cache returns the session's simulation cache.
func (s *Session) Cache() *simcache.Cache { return s.Opts.Cache }

// NewSession compiles and profiles the corpus.
func NewSession(opts Options) (*Session, error) {
	opts = opts.withDefaults()
	list := bench.All()
	if opts.Benchmarks != nil {
		list = nil
		for _, name := range opts.Benchmarks {
			b := bench.ByName(name)
			if b == nil {
				return nil, fmt.Errorf("harness: unknown benchmark %q", name)
			}
			list = append(list, b)
		}
	}
	s := &Session{Opts: opts, startMallocs: procMallocs()}
	s.Workloads = make([]*Workload, len(list))
	err := s.forEachIdx(len(list), func(i int) error {
		b := list[i]
		prog, err := b.Compile()
		if err != nil {
			return err
		}
		w := &Workload{
			Bench:    b,
			Prog:     prog,
			RunInput: b.Input(bench.RunInput, opts.Scale),
			TrainIn:  b.Input(bench.TrainInput, opts.Scale),
			opts:     opts,
			sess:     s,
		}
		if w.ProfRun, err = profile.Collect(prog, w.RunInput, profile.Options{}); err != nil {
			return fmt.Errorf("%s: run profile: %w", b.Name, err)
		}
		if w.ProfTrain, err = profile.Collect(prog, w.TrainIn, profile.Options{}); err != nil {
			return fmt.Errorf("%s: train profile: %w", b.Name, err)
		}
		s.Workloads[i] = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Names returns the benchmark names of the session in order.
func (s *Session) Names() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Bench.Name
	}
	return out
}

// forEachIdx runs fn(0..n-1) on the shared worker pool (internal/workpool) with
// the session's parallelism bound and context. All worker errors — including
// panics recovered into *PanicError — are aggregated (errors.Join) in index
// order, not just the first to arrive, so a multi-benchmark failure reports
// every broken workload deterministically.
func (s *Session) forEachIdx(n int, fn func(int) error) error {
	wallDone := s.pool.enter()
	defer wallDone()
	name := func(i int) string {
		if i < len(s.Workloads) {
			if w := s.Workloads[i]; w != nil {
				return w.Bench.Name
			}
		}
		return ""
	}
	return workpool.RunIndexed(s.Opts.Ctx, n, s.Opts.Parallelism, name, s.pool.busy, fn)
}

// simConfig returns the Table 1 machine for this session.
func (w *Workload) simConfig(dmp bool) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DMP = dmp
	cfg.MaxInsts = w.opts.MaxInsts
	cfg.Tracer = w.opts.Tracer
	return cfg
}

// Baseline simulates the un-annotated binary on the run input under the
// session context. The result is pinned per-workload and additionally
// memoized by the session's content-addressed simulation cache, so
// cross-experiment and cross-process reuse both apply. A cancelled run is
// returned but not pinned, so a later caller with a live context computes
// the baseline normally.
func (w *Workload) Baseline() (pipeline.Stats, error) {
	w.baseMu.Lock()
	defer w.baseMu.Unlock()
	if w.baseDone {
		return w.base, w.baseErr
	}
	st, err := w.runSim(w.Prog.WithAnnots(nil), w.simConfig(false))
	if err != nil {
		err = fmt.Errorf("%s: baseline: %w", w.Bench.Name, err)
		if isCtxErr(err) {
			return st, err
		}
	} else if w.sess != nil {
		w.sess.noteRun(w.Bench.Name, st, false)
	}
	w.base, w.baseErr, w.baseDone = st, err, true
	return w.base, w.baseErr
}

// RunDMP simulates the binary with the given annotations on the run input
// under the session context, memoized by the simulation cache: selection
// configurations that produce identical annotation sidecars (as many of the
// Figure 5-9 sweeps do) hit the cache instead of re-simulating. A
// cancelled run aborts at block-batch granularity and is never memoized.
func (w *Workload) RunDMP(annots map[int]*isa.DivergeInfo) (pipeline.Stats, error) {
	annotated := w.Prog.WithAnnots(annots)
	// Fail fast on an illegal annotation set before burning simulator (or
	// cache) time on it: a diagnostic here means a selection or experiment
	// bug, and the simulation result would be meaningless.
	if err := verify.CheckAnnots(annotated, w.Bench.Name); err != nil {
		return pipeline.Stats{}, fmt.Errorf("%s: dmp: %w", w.Bench.Name, err)
	}
	st, err := w.runSim(annotated, w.simConfig(true))
	if err != nil {
		return st, fmt.Errorf("%s: dmp: %w", w.Bench.Name, err)
	}
	if w.sess != nil {
		w.sess.noteRun(w.Bench.Name, st, true)
	}
	return st, nil
}

// runSim executes one of the workload's simulations under the session
// context through the session cache (see simulate).
func (w *Workload) runSim(prog *isa.Program, cfg pipeline.Config) (pipeline.Stats, error) {
	return simulate(w.ctx(), w.opts.Cache, w.opts.Sample, w.sess, prog, w.RunInput, cfg)
}

// isCtxErr reports whether err stems from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ctx returns the workload's ambient context (the session's, or Background).
func (w *Workload) ctx() context.Context {
	if w.opts.Ctx != nil {
		return w.opts.Ctx
	}
	return context.Background()
}

// Improvement returns the DMP speedup over baseline in percent.
func Improvement(base, dmp pipeline.Stats) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (dmp.IPC()/base.IPC() - 1) * 100
}

// Select runs a selection configuration against the chosen profile.
func (w *Workload) Select(p core.Params, train bool) (*core.Result, error) {
	prof := w.ProfRun
	if train {
		prof = w.ProfTrain
	}
	res, err := core.Select(w.Prog, prof, p)
	if err != nil {
		return nil, fmt.Errorf("%s: select: %w", w.Bench.Name, err)
	}
	return res, nil
}

// SelectBaseline runs one of the Section 7.2 simple algorithms.
func (w *Workload) SelectBaseline(b core.Baseline) (*core.Result, error) {
	res, err := core.SelectBaseline(w.Prog, w.ProfRun, b, 50)
	if err != nil {
		return nil, fmt.Errorf("%s: baseline select: %w", w.Bench.Name, err)
	}
	return res, nil
}

// HeuristicConfigs returns the cumulative Figure 5 (left) configurations in
// order: exact, exact+freq, +short, +ret, +loop (All-best-heur).
func HeuristicConfigs() []struct {
	Name   string
	Params core.Params
} {
	exact := core.HeuristicParams()
	exact.EnableFreq = false
	exact.EnableShort = false
	exact.EnableRetCFM = false
	exact.EnableLoops = false

	freq := exact
	freq.EnableFreq = true

	short := freq
	short.EnableShort = true

	ret := short
	ret.EnableRetCFM = true

	loop := ret
	loop.EnableLoops = true

	return []struct {
		Name   string
		Params core.Params
	}{
		{"exact", exact},
		{"exact+freq", freq},
		{"exact+freq+short", short},
		{"exact+freq+short+ret", ret},
		{"All-best-heur", loop},
	}
}

// CostConfigs returns the Figure 5 (right) configurations in order:
// cost-long, cost-edge, cost-edge+short, +ret, +loop (All-best-cost).
func CostConfigs() []struct {
	Name   string
	Params core.Params
} {
	long := core.CostParams(core.LongestPath)
	long.EnableShort = false
	long.EnableRetCFM = false
	long.EnableLoops = false

	edge := core.CostParams(core.EdgeWeighted)
	edge.EnableShort = false
	edge.EnableRetCFM = false
	edge.EnableLoops = false

	short := edge
	short.EnableShort = true

	ret := short
	ret.EnableRetCFM = true

	loop := ret
	loop.EnableLoops = true

	return []struct {
		Name   string
		Params core.Params
	}{
		{"cost-long", long},
		{"cost-edge", edge},
		{"cost-edge+short", short},
		{"cost-edge+short+ret", ret},
		{"All-best-cost", loop},
	}
}
