package main

import (
	"context"
	"fmt"
	"strings"

	"dmp/internal/bench"
	"dmp/internal/emu"
	"dmp/internal/harness"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/sweep"
)

// sweepEnv is the sweep's corpus (input tapes at the sweep scale) and grid.
type sweepEnv struct {
	progs []sweep.Program
	grid  *sweep.GridSpec
}

func (sweepEnv) close() {}

// sweepShape returns the corpus subset (nil = all 17), input scale and
// grid axes for a size.
func sweepShape(rc runConfig) ([]string, int, []sweep.Axis) {
	if rc.size == tinySize {
		return []string{"eon", "vortex"}, 1, []sweep.Axis{{Field: "DMP", Values: []string{"false", "true"}}}
	}
	return nil, 8, []sweep.Axis{
		{Field: "ROBSize", Values: []string{"256", "512"}},
		{Field: "DMP", Values: []string{"false", "true"}},
		{Field: "MinMispPenalty", Values: []string{"15", "25"}},
	}
}

// sweepRefCell is the grid cell the layer drive re-simulates through the
// harness to check it against the sweep's row.
func sweepRefCell(rc runConfig) (string, pipeline.Config) {
	c := machine(true, 0)
	if rc.size == tinySize {
		return "DMP=true", c
	}
	c.ROBSize, c.MinMispPenalty = 512, 25
	return "ROBSize=512 DMP=true MinMispPenalty=25", c
}

func sweepSetup(rc runConfig) (env, error) {
	names, scale, axes := sweepShape(rc)
	progs, err := sweep.FromBench(names, scale)
	if err != nil {
		return nil, err
	}
	grid := &sweep.GridSpec{Axes: axes}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	return sweepEnv{progs, grid}, nil
}

func sweepPass(rc runConfig, e env, sp *spanLog) (*passResult, error) {
	se := e.(sweepEnv)
	cache := simcache.New("")
	cellSpan := -1
	opts := sweep.Options{Parallelism: rc.par, Cache: cache, Sample: sample.DefaultConf()}
	if sp != nil {
		// One zero-length span per completed cell: the engine's own
		// completion events, taken at the callback it exposes.
		opts.Progress = func(done, skipped, total int) { sp.end(sp.start("sweep.cell_done", cellSpan)) }
	}
	timer := startPass()
	cellSpan = sp.start("sweep.run", -1)
	rep, err := sweep.Run(context.Background(), se.progs, se.grid, opts)
	sp.end(cellSpan)
	wall, allocs, rss := timer.finish()
	if err != nil {
		return nil, err
	}
	snap := cache.Metrics()

	cells, _ := se.grid.Cells()
	pr := &passResult{wall: wall, rssMB: rss, ops: len(se.progs) * len(cells), refIPC: map[string]float64{}}
	pr.failed += pr.ops - len(rep.Rows)
	refLabel, _ := sweepRefCell(rc)

	var agg machineAgg
	base := map[string]float64{}
	for _, r := range rep.Rows {
		if strings.Contains(r.Cell, "DMP=false") {
			base[r.Program+"|"+strings.Replace(r.Cell, "DMP=false", "", 1)] = r.IPC
		}
	}
	var gains []float64
	for _, r := range rep.Rows {
		b := bench.ByName(r.Program)
		_, scale, _ := sweepShape(rc)
		ref, err := emuCount(sweepKey(r.Program, scale), func() (uint64, error) {
			prog, err := b.Compile()
			if err != nil {
				return 0, err
			}
			return emu.New(prog, b.Input(bench.RunInput, scale), 0).Run(0)
		})
		if err != nil {
			return nil, err
		}
		if r.Retired != ref || !(r.IPC > 0) {
			pr.failed++
		}
		pr.insts += r.Retired
		dmp := strings.Contains(r.Cell, "DMP=true")
		agg.add(r.Stats, dmp)
		if dmp {
			if bi := base[r.Program+"|"+strings.Replace(r.Cell, "DMP=true", "", 1)]; bi > 0 {
				gains = append(gains, (r.IPC/bi-1)*100)
			}
		}
		if r.Cell == refLabel {
			pr.refIPC[r.Program] = r.IPC
		}
	}
	pr.ipcGain = mean(gains)
	pr.digest = hashJSON(rep.Rows)
	// Sampled estimates (sample.Result.AsStats) carry IPC, mispredictions
	// and flushes only; the drive's full-machine runs supply the rest.
	pr.machine = agg.metrics()
	for k := range pr.machine {
		switch k {
		case "pipeline.ipc_base", "pipeline.ipc_dmp", "bpred.mpki", "pipeline.flushes_per_ki":
		default:
			delete(pr.machine, k)
		}
	}
	pr.counters = cacheCounters(snap)
	pr.counters["harness.allocs_per_ki"] = ratio(float64(allocs)*1000, float64(pr.insts))
	pr.counters["sweep.cells"] = float64(len(rep.Rows))
	pr.counters["sweep.cells_per_s"] = float64(len(rep.Rows)) / wall.Seconds()
	return pr, nil
}

func sweepKey(name string, scale int) string { return fmt.Sprintf("sweep/%s/%d", name, scale) }

// sweepPipeCap bounds the drive's full-machine pipeline.Run calls on the
// scale-8 tapes; the sweep itself simulates them sampled.
const sweepPipeCap = 500_000

func sweepDrive(rc runConfig, e env, ref *passResult, sp *spanLog) (*driveResult, error) {
	se := e.(sweepEnv)
	var progs []driveProg
	for _, p := range se.progs {
		progs = append(progs, driveProg{name: p.Name, source: p.Source, run: p.RunInput, prof: p.TrainInput, train: p.TrainInput})
	}
	_, cellCfg := sweepRefCell(rc)
	o := driveOpts{
		pipeCap: sweepPipeCap,
		simCfg:  cellCfg,
		simOpts: harness.EvalOptions{Sample: sample.DefaultConf()},
	}
	layers, drv, mach, err := driveLayers(progs, o, sp)
	if err != nil {
		return nil, err
	}
	_, scale, _ := sweepShape(rc)
	dr := &driveResult{layers: layers, machine: mach, ops: 2 * len(drv)}
	for _, d := range drv {
		if d.sim.IPC() != ref.refIPC[d.name] {
			dr.failed++
		}
		if n, ok := emuCounts.Load(sweepKey(d.name, scale)); !ok || d.emuInsts != n.(uint64) {
			dr.failed++
		}
	}
	return dr, nil
}
