package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit; the lists below are the
// contract BENCHMARK.json declares (perfbench_test.go keeps them in sync).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minsts_per_s", "Minst/s"},
	{"ops_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"dmp_ipc_pct", "%"},
}

var perLayer = []metricDef{
	{"lang.parse_ms", "ms"},
	{"lang.check_ms", "ms"},
	{"irgen.generate_ms", "ms"},
	{"codegen.compile_ms", "ms"},
	{"codegen.insts", "count"},
	{"cfg.analyze_ms", "ms"},
	{"cfg.blocks", "count"},
	{"core.select_ms", "ms"},
	{"core.diverge_selected", "count"},
	{"verify.check_ms", "ms"},
	{"predecode.compile_ms", "ms"},
	{"profile.collect_ms", "ms"},
	{"profile.minsts_per_s", "Minst/s"},
	{"emu.run_ms", "ms"},
	{"emu.minsts_per_s", "Minst/s"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.kips", "KI/s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"sample.run_ms", "ms"},
	{"sample.minsts_per_s", "Minst/s"},
	{"sample.detailed_share", "ratio"},
	{"harness.prepare_ms", "ms"},
	{"harness.simulate_ms", "ms"},
	{"simcache.requests", "count"},
	{"simcache.hits", "count"},
	{"simcache.dedups", "count"},
	{"simcache.misses", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.sim_s", "s"},
	{"workpool.occupancy", "ratio"},
	{"harness.allocs_per_ki", "count/KI"},
	{"sweep.cells", "count"},
	{"sweep.cells_per_s", "1/s"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.submit_rtt_p50_ms", "ms"},
	{"serve.polls_per_job", "count"},
	{"serve.refused", "count"},
	{"pipeline.ipc_base", "IPC"},
	{"pipeline.ipc_dmp", "IPC"},
	{"bpred.mpki", "MPKI"},
	{"pipeline.flushes_per_ki", "count/KI"},
	{"dpred.entries", "count"},
	{"dpred.merged_ratio", "ratio"},
	{"dpred.saved_flushes", "count"},
	{"dpred.wasted_cycles", "cycles"},
	{"cache.l1i_miss_rate", "ratio"},
	{"cache.l1d_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"sample.ci_halfwidth_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"host.calib_ms", "ms"},
}

// Sizes: fullSize is the benchmark proper; tinySize is the test's shrunken
// variant of every workload (same code paths, seconds instead of minutes).
const (
	fullSize = iota
	tinySize
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansOut string
	par      int
	size     int
	// pass is the index of the pass being set up; serve-gen derives a
	// distinct corpus per pass from (seed, pass).
	pass int
	// root is the repository root the golden files are read from ("" =
	// the working directory).
	root string
	// golden overrides evaluation_output.txt (tests corrupt it).
	golden string
	// corruptFirst, when set, rewrites one first-submission result before
	// the serve-gen repeat check (tests use it to prove the check bites).
	corruptFirst bool
}

// env is one workload's set-up state for a pass.
type env interface{ close() }

// workload is one benchmark workload: set-up (timed as setup_s), one pass
// of fixed work (timed as wall_s, checks excluded), and the traced layer
// drive over its programs.
type workload struct {
	// samePasses marks a workload whose every pass does identical work,
	// so each pass must reproduce the first pass's stats digest.
	samePasses bool
	// minPasses is the fewest passes a run makes (at least two, so wall_s
	// is never one sample; serve-gen's p99 needs 3000 jobs to settle).
	minPasses int
	// warm, when set, runs untimed before the first pass.
	warm  func(rc runConfig) error
	setup func(rc runConfig) (env, error)
	pass  func(rc runConfig, e env, sp *spanLog) (*passResult, error)
	drive func(rc runConfig, e env, ref *passResult, sp *spanLog) (*driveResult, error)
}

var workloads = map[string]workload{
	"paper-eval":    {samePasses: true, minPasses: 2, setup: paperSetup, pass: paperPass, drive: paperDrive},
	"sweep-sampled": {samePasses: true, minPasses: 3, setup: sweepSetup, pass: sweepPass, drive: sweepDrive},
	"serve-gen":     {minPasses: 3, warm: serveWarm, setup: serveSetup, pass: servePass, drive: serveDrive},
}

// passResult is one pass's measurements and check outcome.
type passResult struct {
	wall time.Duration
	// rssMB is the peak resident set sampled during the timed region.
	rssMB float64
	// ops counts the operations attempted (simulations, cells or jobs);
	// failed counts those that failed or produced incorrect output.
	ops, failed int
	// insts is the simulated instruction total the pass's results account
	// for, cache-answered results included.
	insts   uint64
	ipcGain float64
	// jobLatMS holds per-job latencies for serve-gen; nil for batch
	// workloads, whose job is the whole pass.
	jobLatMS []float64
	digest   string
	// machine holds the modelled-machine counts from the workload's own
	// results (nil where the results do not carry full Stats).
	machine map[string]float64
	// counters holds the per-layer counters read from snapshots.
	counters map[string]float64
	// refIPC maps a program key to the IPC the workload reported for it,
	// so the layer drive can check it reproduces the same simulation.
	refIPC map[string]float64
}

// driveResult is the layer drive's output.
type driveResult struct {
	layers  map[string]float64
	machine map[string]float64 // used when the pass has none
	failed  int
	ops     int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run times at least setupReps set-ups, and keeps timing more (up to
// setupMaxReps) until setupBudget is spent, so that setup_s is the median
// of many samples even where one set-up takes milliseconds.
const (
	setupReps    = 5
	setupMaxReps = 40
	setupBudget  = time.Second
)

func run(w workload, rc runConfig) (*result, map[string]any, error) {
	info := map[string]any{
		"workload": rc.workload,
		"seed":     rc.seed,
		"seconds":  rc.seconds,
		"trace":    rc.trace,
		"host":     hostFacts(),
	}
	if w.warm != nil {
		if err := w.warm(rc); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if rc.trace {
		return runTraced(w, rc, info)
	}

	var setups []float64 // seconds
	var passes []*passResult
	var measured, setupTotal time.Duration
	for len(passes) < w.minPasses || measured < time.Duration(rc.seconds)*time.Second {
		rc.pass = len(passes)
		e, d, err := timedSetup(w, rc)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		setupTotal += d
		pr, err := w.pass(rc, e, nil)
		e.close()
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, pr)
		measured += d + pr.wall
	}
	for len(setups) < setupReps || (setupTotal < setupBudget && len(setups) < setupMaxReps) {
		rc.pass = len(setups) % len(passes)
		e, d, err := timedSetup(w, rc)
		if err != nil {
			return nil, nil, err
		}
		e.close()
		setups = append(setups, d.Seconds())
		setupTotal += d
	}

	attempted, failed := 0, 0
	var walls, jobLat, instRate, opRate, rss, gains []float64
	for _, p := range passes {
		attempted += p.ops
		failed += p.failed
		if w.samePasses && p.digest != passes[0].digest {
			failed++ // a pass must reproduce the first pass's results exactly
		}
		walls = append(walls, p.wall.Seconds())
		jobLat = append(jobLat, p.jobLatMS...)
		instRate = append(instRate, float64(p.insts)/1e6/p.wall.Seconds())
		opRate = append(opRate, float64(p.ops)/p.wall.Seconds())
		rss = append(rss, p.rssMB)
		gains = append(gains, p.ipcGain)
	}
	if jobLat == nil {
		for _, s := range walls {
			jobLat = append(jobLat, s*1e3)
		}
	}
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(endToEnd, name)} }
	put("setup_s", quantile(setups, 0.5))
	put("wall_s", quantile(walls, 0.5))
	put("sim_minsts_per_s", quantile(instRate, 0.5))
	put("ops_per_s", quantile(opRate, 0.5))
	put("job_p50_ms", quantile(jobLat, 0.5))
	put("job_p99_ms", quantile(jobLat, 0.99))
	put("peak_rss_mb", quantile(rss, 0.5))
	put("success_ratio", 1-float64(failed)/float64(attempted))
	put("dmp_ipc_pct", 100+mean(gains))

	info["passes"] = len(passes)
	info["pass_walls_s"] = walls
	info["setups_s"] = setups
	info["jobs_timed"] = len(jobLat)
	info["error_rate"] = float64(failed) / float64(attempted)
	info["ipc_gain_pct"] = mean(gains)
	info["stats_digest"] = passes[0].digest
	info["machine"] = passes[0].machine
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, info, nil
}

// runTraced makes one untraced pass, one traced pass and the layer drive,
// and reports the per-layer metrics.
func runTraced(w workload, rc runConfig, info map[string]any) (*result, map[string]any, error) {
	e, _, err := timedSetup(w, rc)
	if err != nil {
		return nil, nil, err
	}
	plain, err := w.pass(rc, e, nil)
	e.close()
	if err != nil {
		return nil, nil, err
	}

	sp := newSpanLog()
	id := sp.start("setup", -1)
	e, err = w.setup(rc)
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	traced, err := w.pass(rc, e, sp)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	dr, err := w.drive(rc, e, traced, sp)
	e.close()
	if err != nil {
		return nil, nil, err
	}
	if rc.spansOut != "" {
		if err := sp.write(rc.spansOut); err != nil {
			return nil, nil, err
		}
	}

	failed := plain.failed + traced.failed + dr.failed
	if traced.digest != plain.digest {
		failed++
	}
	attempted := plain.ops + traced.ops + dr.ops

	// The workload's own results supply the modelled-machine counts where
	// they carry full Stats; otherwise the drive's simulations do.
	vals := map[string]float64{}
	for _, src := range []map[string]float64{dr.machine, dr.layers, traced.machine, traced.counters} {
		for k, v := range src {
			vals[k] = v
		}
	}
	machine := traced.machine
	if machine == nil {
		machine = dr.machine
	}
	vals["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	vals["host.calib_ms"] = calibrate()

	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{vals[d.name], d.unit}
	}
	info["error_rate"] = float64(failed) / float64(attempted)
	info["stats_digest"] = traced.digest
	info["machine"] = machine
	info["untraced_wall_s"] = plain.wall.Seconds()
	info["traced_wall_s"] = traced.wall.Seconds()
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, info, nil
}

func timedSetup(w workload, rc runConfig) (env, time.Duration, error) {
	t0 := time.Now()
	e, err := w.setup(rc)
	return e, time.Since(t0), err
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs, except that the
// median of an even count averages the middle two (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
