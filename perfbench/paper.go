package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/harness"
	"dmp/internal/pipeline"
	"dmp/internal/simcache"
	"dmp/internal/stats"
)

// paperEnv is a prepared evaluation session (compile and both profiles of
// every benchmark) with its own empty simulation cache.
type paperEnv struct{ s *harness.Session }

func (paperEnv) close() {}

func paperBenches(rc runConfig) []string {
	if rc.size == tinySize {
		return []string{"eon", "vortex"}
	}
	return nil
}

func paperSetup(rc runConfig) (env, error) {
	s, err := harness.NewSession(harness.Options{
		Parallelism: rc.par,
		Benchmarks:  paperBenches(rc),
		Cache:       simcache.New(""),
	})
	if err != nil {
		return nil, err
	}
	return paperEnv{s}, nil
}

// paperExperiments is dmpbench's -exp all sequence after Table 1.
var paperExperiments = []struct {
	name string
	fn   func(*harness.Session) (*stats.Table, error)
}{
	{"table2", harness.Table2},
	{"fig5left", harness.Fig5Left},
	{"fig5right", harness.Fig5Right},
	{"fig6", harness.Fig6},
	{"fig7", func(s *harness.Session) (*stats.Table, error) { return harness.Fig7(s, nil, nil) }},
	{"fig8", harness.Fig8},
	{"fig9", harness.Fig9},
	{"fig10", harness.Fig10},
}

// paperSel is one selection configuration an experiment simulates per
// workload.
type paperSel struct {
	name string
	sel  func(w *harness.Workload) (*core.Result, error)
}

// paperSelections lists every DMP simulation Figures 5-9 request per
// workload, in experiment order. Replaying them against the session's warm
// cache returns each result the evaluation computed, so every one can be
// checked and hashed; the replay must add no cache miss, which proves the
// list matches the experiments.
func paperSelections() []paperSel {
	var out []paperSel
	params := func(prefix string, train bool, cfgs []struct {
		Name   string
		Params core.Params
	}) {
		for _, c := range cfgs {
			p := c.Params
			out = append(out, paperSel{prefix + c.Name, func(w *harness.Workload) (*core.Result, error) { return w.Select(p, train) }})
		}
	}
	params("fig5left/", false, harness.HeuristicConfigs())
	params("fig5right/", false, harness.CostConfigs())
	params("fig6/", false, harness.HeuristicConfigs())
	for _, mi := range []int{10, 25, 50, 100, 200} {
		for _, mm := range []float64{0.90, 0.50, 0.30, 0.05, 0.01} {
			p := core.HeuristicParams()
			p.EnableShort, p.EnableRetCFM, p.EnableLoops = false, false, false
			p.MaxInstr, p.MaxCbr, p.MinMergeProb = mi, max(mi/10, 1), mm
			out = append(out, paperSel{fmt.Sprintf("fig7/%d/%g", mi, mm), func(w *harness.Workload) (*core.Result, error) { return w.Select(p, false) }})
		}
	}
	for _, b := range []core.Baseline{core.EveryBranch, core.Random50, core.HighBP5, core.Immediate, core.IfElse} {
		out = append(out, paperSel{"fig8/" + b.String(), func(w *harness.Workload) (*core.Result, error) { return w.SelectBaseline(b) }})
	}
	best := harness.HeuristicConfigs()[4].Params
	cost := harness.CostConfigs()[4].Params
	sel := func(name string, p core.Params, train bool) {
		out = append(out, paperSel{name, func(w *harness.Workload) (*core.Result, error) { return w.Select(p, train) }})
	}
	sel("fig8/All-best-heur", best, false)
	sel("fig9/All-best-heur-same", best, false)
	sel(paperTrainBest, best, true)
	sel("fig9/All-best-cost-same", cost, false)
	sel("fig9/All-best-cost-diff", cost, true)
	return out
}

// paperRunBest is the Figure 5 All-best-heur selection (run-tape profile),
// whose mean gain is ipc_gain_pct; paperTrainBest selects from the train
// tape, as harness.PrepareSource does.
const (
	paperRunBest   = "fig5left/All-best-heur"
	paperTrainBest = "fig9/All-best-heur-diff"
)

// emuCounts memoizes each program's reference instruction count
// (emu.Machine.Run on the same binary and tape) across a run's passes.
var emuCounts sync.Map

func emuCount(key string, run func() (uint64, error)) (uint64, error) {
	if v, ok := emuCounts.Load(key); ok {
		return v.(uint64), nil
	}
	n, err := run()
	if err != nil {
		return 0, err
	}
	emuCounts.Store(key, n)
	return n, nil
}

func paperGolden(rc runConfig) (string, error) {
	if rc.golden != "" {
		return rc.golden, nil
	}
	b, err := os.ReadFile(filepath.Join(rc.root, "evaluation_output.txt"))
	return string(b), err
}

func paperPass(rc runConfig, e env, sp *spanLog) (*passResult, error) {
	s := e.(paperEnv).s
	golden, err := paperGolden(rc)
	if err != nil {
		return nil, err
	}

	var out bytes.Buffer
	harness.Table1(&out)
	out.WriteString("\n")
	timer := startPass()
	for _, ex := range paperExperiments {
		id := sp.start("harness."+ex.name, -1)
		tbl, err := ex.fn(s)
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.name, err)
		}
		tbl.Render(&out)
		out.WriteString("\n")
	}
	wall, allocs, rss := timer.finish()
	snap := s.Cache().Metrics()
	pool := s.Metrics().Pool

	pr := &passResult{wall: wall, rssMB: rss, ops: int(snap.Requests()), refIPC: map[string]float64{}}
	_, bad := compareEval(out.String(), golden)
	pr.failed += bad

	// Replay every logical simulation against the warm cache.
	sels := paperSelections()
	type wres struct {
		base pipeline.Stats
		dmp  []pipeline.Stats
		ref  uint64
		err  error
	}
	res := make([]wres, len(s.Workloads))
	var wg sync.WaitGroup
	sem := make(chan struct{}, rc.par)
	for i, w := range s.Workloads {
		wg.Add(1)
		go func(i int, w *harness.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &res[i]
			if r.base, r.err = w.Baseline(); r.err != nil {
				return
			}
			r.ref, r.err = emuCount("paper/"+w.Bench.Name, func() (uint64, error) { return emu.New(w.Prog, w.RunInput, 0).Run(0) })
			if r.err != nil {
				return
			}
			for _, ps := range sels {
				sel, err := ps.sel(w)
				if err != nil {
					r.err = err
					return
				}
				st, err := w.RunDMP(sel.Annots)
				if err != nil {
					r.err = err
					return
				}
				r.dmp = append(r.dmp, st)
			}
		}(i, w)
	}
	wg.Wait()
	after := s.Cache().Metrics()

	var agg machineAgg
	var gains []float64
	hashed := []any{out.String()}
	logical := len(s.Workloads)
	for i, w := range s.Workloads {
		r := res[i]
		if r.err != nil {
			return nil, fmt.Errorf("replay %s: %w", w.Bench.Name, r.err)
		}
		all := append([]pipeline.Stats{r.base}, r.dmp...)
		for j, st := range all {
			pr.insts += st.Retired
			if st.Retired != r.ref {
				pr.failed++
			}
			agg.add(st, j > 0)
			hashed = append(hashed, st)
		}
		logical += len(r.dmp)
		for j, ps := range sels {
			switch ps.name {
			case paperRunBest:
				gains = append(gains, harness.Improvement(r.base, r.dmp[j]))
				pr.refIPC[w.Bench.Name+"/runbest"] = r.dmp[j].IPC()
			case paperTrainBest:
				pr.refIPC[w.Bench.Name] = r.dmp[j].IPC()
			}
		}
		pr.refIPC[w.Bench.Name+"/base"] = r.base.IPC()
	}
	// The replay must be all hits and cover exactly the evaluation's
	// requests; otherwise the checked results are not the evaluated ones.
	if after.Misses != snap.Misses || logical != pr.ops {
		pr.failed++
	}
	pr.ipcGain = mean(gains)
	pr.digest = hashJSON(hashed...)
	pr.machine = agg.metrics()
	pr.counters = cacheCounters(snap)
	pr.counters["harness.allocs_per_ki"] = ratio(float64(allocs)*1000, float64(pr.insts))
	pr.counters["workpool.occupancy"] = pool.Occupancy()
	return pr, nil
}

// cacheCounters reads a simcache snapshot into the per-layer counters.
func cacheCounters(snap simcache.Snapshot) map[string]float64 {
	return map[string]float64{
		"simcache.requests":  float64(snap.Requests()),
		"simcache.hits":      float64(snap.Hits),
		"simcache.dedups":    float64(snap.Dedups),
		"simcache.misses":    float64(snap.Misses),
		"simcache.hit_ratio": snap.HitRate(),
		"simcache.sim_s":     snap.SimWall.Seconds(),
	}
}

func paperDrive(rc runConfig, e env, ref *passResult, sp *spanLog) (*driveResult, error) {
	s := e.(paperEnv).s
	var progs []driveProg
	for _, w := range s.Workloads {
		progs = append(progs, driveProg{name: w.Bench.Name, source: w.Bench.Source, run: w.RunInput, prof: w.RunInput, train: w.TrainIn})
	}
	layers, drv, mach, err := driveLayers(progs, driveOpts{simCfg: machine(true, 0)}, sp)
	if err != nil {
		return nil, err
	}
	dr := &driveResult{layers: layers, machine: mach, ops: 3 * len(drv)}
	for _, d := range drv {
		// The drive's own simulations must reproduce the evaluation's:
		// baseline, run-profile All-best-heur, and train-profile
		// All-best-heur through the harness.
		if d.bare.IPC() != ref.refIPC[d.name+"/base"] || d.dmp.IPC() != ref.refIPC[d.name+"/runbest"] ||
			d.sim.IPC() != ref.refIPC[d.name] {
			dr.failed++
		}
		if d.emuInsts != d.bare.Retired || d.emuInsts != d.dmp.Retired {
			dr.failed++
		}
	}
	return dr, nil
}
