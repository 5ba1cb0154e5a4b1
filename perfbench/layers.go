package main

import (
	"context"
	"fmt"

	"dmp/internal/cfg"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/harness"
	"dmp/internal/ir"
	"dmp/internal/irgen"
	"dmp/internal/isa"
	"dmp/internal/lang"
	"dmp/internal/pipeline"
	"dmp/internal/predecode"
	"dmp/internal/profile"
	"dmp/internal/sample"
	"dmp/internal/verify"
)

// driveProg is one workload program as the layer drive consumes it.
type driveProg struct {
	name, source string
	// run is the simulated tape; prof the tape the drive profiles and
	// selects on; train the tape harness.PrepareSource profiles.
	run, prof, train []int64
}

// driveOpts fixes how the drive simulates a workload's programs.
type driveOpts struct {
	// pipeCap bounds pipeline.Run (0 = to completion); sample.Run always
	// runs the whole tape, as the sampled workloads do.
	pipeCap uint64
	// simCfg and simOpts are what Prepared.Simulate runs, matching the
	// workload's own simulation of the program so the two can be compared.
	simCfg  pipeline.Config
	simOpts harness.EvalOptions
}

// driven is one program's drive output.
type driven struct {
	name           string
	bare, dmp, sim pipeline.Stats
	emuInsts       uint64
}

// driveLayers calls every layer's public entry point on each program, one
// call at a time, each under its own span, so a layer's span is its self
// time. It returns the per-layer metrics, the per-program simulations and
// the modelled-machine counts of the drive's own full-machine runs.
func driveLayers(progs []driveProg, o driveOpts, sp *spanLog) (map[string]float64, []driven, map[string]float64, error) {
	ctx := context.Background()
	root := sp.start("drive", -1)
	defer sp.end(root)

	var agg machineAgg
	var insts, blocks, selected int
	var profInsts, emuInsts, pipeRet, pipeCycles, sampTotal, sampDetailed uint64
	out := make([]driven, 0, len(progs))
	for _, p := range progs {
		pid := sp.start("program", root)
		call := func(name string, fn func() error) error {
			id := sp.start(name, pid)
			err := fn()
			sp.end(id)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", p.name, name, err)
			}
			return nil
		}
		var (
			f    *lang.File
			irp  *ir.Program
			prog *isa.Program
			prof *profile.Profile
			sel  *core.Result
			d    = driven{name: p.name}
			prep *harness.Prepared
			sres sample.Result
		)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"lang.parse", func() (err error) { f, err = lang.Parse(p.source); return }},
			{"lang.check", func() error { return lang.Check(f) }},
			{"irgen.generate", func() (err error) { irp, err = irgen.Generate(f); return }},
			{"codegen.compile", func() (err error) { prog, err = codegen.Compile(irp); return }},
			{"cfg.analyze", func() error {
				for _, fn := range prog.Funcs {
					g, err := cfg.Build(prog, fn)
					if err != nil {
						return err
					}
					cfg.Dominators(g)
					cfg.PostDominators(g)
					blocks += len(g.Blocks)
				}
				return nil
			}},
			{"profile.collect", func() (err error) { prof, err = profile.Collect(prog, p.prof, profile.Options{}); return }},
			{"core.select", func() (err error) { sel, err = core.Select(prog, prof, core.HeuristicParams()); return }},
			{"verify.check", func() error { return verify.Check(prog.WithAnnots(sel.Annots), p.name) }},
			{"predecode.compile", func() error { predecode.Compile(prog); return nil }},
			{"emu.run", func() (err error) { d.emuInsts, err = emu.New(prog, p.run, 0).Run(0); return }},
			{"pipeline.run", func() (err error) {
				if d.bare, err = pipeline.Run(prog.WithAnnots(nil), p.run, machine(false, o.pipeCap)); err != nil {
					return err
				}
				d.dmp, err = pipeline.Run(prog.WithAnnots(sel.Annots), p.run, machine(true, o.pipeCap))
				return err
			}},
			{"sample.run", func() (err error) {
				sres, err = sample.Run(ctx, prog.WithAnnots(nil), p.run, machine(false, 0), sample.DefaultConf())
				return
			}},
			{"harness.prepare", func() (err error) {
				prep, err = harness.PrepareSource(ctx, p.name, p.source, p.run, p.train, "heur", harness.EvalOptions{})
				return
			}},
			{"harness.simulate", func() (err error) { d.sim, err = prep.Simulate(ctx, o.simCfg, o.simOpts); return }},
		}
		for _, s := range steps {
			if err := call(s.name, s.fn); err != nil {
				sp.end(pid)
				return nil, nil, nil, err
			}
		}
		sp.end(pid)

		insts += len(prog.Code)
		selected += len(sel.Annots)
		profInsts += prof.TotalRetired
		emuInsts += d.emuInsts
		pipeRet += d.bare.Retired + d.dmp.Retired
		pipeCycles += uint64(d.bare.Cycles + d.dmp.Cycles)
		sampTotal += sres.TotalInsts
		sampDetailed += sres.DetailedInsts
		agg.add(d.bare, false)
		agg.add(d.dmp, true)
		agg.addCI(sres.RelErr())
		out = append(out, d)
	}

	self := sp.selfMS
	layers := map[string]float64{
		"lang.parse_ms":         self("lang.parse"),
		"lang.check_ms":         self("lang.check"),
		"irgen.generate_ms":     self("irgen.generate"),
		"codegen.compile_ms":    self("codegen.compile"),
		"codegen.insts":         float64(insts),
		"cfg.analyze_ms":        self("cfg.analyze"),
		"cfg.blocks":            float64(blocks),
		"core.select_ms":        self("core.select"),
		"core.diverge_selected": float64(selected),
		"verify.check_ms":       self("verify.check"),
		"predecode.compile_ms":  self("predecode.compile"),
		"profile.collect_ms":    self("profile.collect"),
		"emu.run_ms":            self("emu.run"),
		"pipeline.run_ms":       self("pipeline.run"),
		"sample.run_ms":         self("sample.run"),
		"harness.prepare_ms":    self("harness.prepare"),
		"harness.simulate_ms":   self("harness.simulate"),
		"sample.detailed_share": ratio(float64(sampDetailed), float64(sampTotal)),
	}
	perSec := func(n uint64, msName string) float64 { return ratio(float64(n), layers[msName]/1e3) }
	layers["profile.minsts_per_s"] = perSec(profInsts, "profile.collect_ms") / 1e6
	layers["emu.minsts_per_s"] = perSec(emuInsts, "emu.run_ms") / 1e6
	layers["pipeline.kips"] = perSec(pipeRet, "pipeline.run_ms") / 1e3
	layers["pipeline.ns_per_cycle"] = ratio(layers["pipeline.run_ms"]*1e6, float64(pipeCycles))
	layers["sample.minsts_per_s"] = perSec(sampTotal, "sample.run_ms") / 1e6
	return layers, out, agg.metrics(), nil
}

// machine is the Table 1 configuration the harness simulates programs on.
func machine(dmp bool, maxInsts uint64) pipeline.Config {
	c := pipeline.DefaultConfig()
	c.DMP = dmp
	c.MaxInsts = maxInsts
	return c
}
