package sample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/workpool"
)

// Run executes a sampled simulation of (prog, input, cfg) under sc. The
// program is tiled into Period-length strata; each stratum's interval lands
// at a seed-derived offset inside it (stratified random sampling — see
// SampleConf.Seed) and runs warmup+measure instructions of detailed
// simulation, with functional fast-forward plus microarchitectural warming
// in between. The per-interval CPIs aggregate into the estimate and its
// Student-t confidence interval.
//
// Two execution strategies share that placement:
//
//   - Shards <= 1 (the default): one chained stream. A single pipeline walks
//     the whole program, alternating warmed skips with detailed intervals,
//     so every interval inherits the full warm history of everything before
//     it and the instruction count is discovered en route — no separate
//     counting or replay pass.
//   - Shards >= 2: a functional pass counts the program, a replay pass forks
//     the architectural state ahead of each shard's first interval, and the
//     contiguous interval chains fan out across cores through the
//     process-wide workpool budget.
//
// Everything that shapes the result — interval placement, shard boundaries —
// derives from (instruction count, sc) alone, never from the host, so a
// given (program, input, cfg, sc) always produces the identical Result and
// can be memoized exactly like a full-fidelity run.
func Run(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !sc.Enabled {
		return runExact(ctx, prog, input, cfg, sc)
	}
	if sc.Shards >= 2 {
		return runSharded(ctx, prog, input, cfg, sc)
	}

	// A program's dynamic instruction count is a pure function of (program,
	// input, MaxInsts) — it does not depend on the sampling conf or the
	// machine model — so a remembered count from any earlier run lets this
	// one pick the right period up front and stop at its last interval:
	// no discovery pass, no tail walk. Config sweeps and repeated server
	// jobs hit this path on every run after the first.
	key := memoKey(prog, input, cfg.MaxInsts)
	if total, ok := totalMemo.Load(key); ok {
		return runKnown(ctx, prog, input, cfg, sc, nil, total.(uint64))
	}

	m := emu.New(prog, input, 0)
	r, total, err := runStream(ctx, m, cfg, sc, sc.Period, 0)
	if err != nil {
		return Result{}, err
	}
	storeTotal(key, total)
	if r.Intervals >= sc.MinIntervals {
		return r, nil
	}
	// Too short for MinIntervals at the configured spacing: fall through to
	// the known-total decision tree, re-streaming on the same machine (one
	// in-place clear instead of a fresh 8MB image plus a predecode pass).
	m.Reset()
	return runKnown(ctx, prog, input, cfg, sc, m, total)
}

// runKnown picks the sampling strategy for a program whose instruction count
// is already known — from the memo or from a discovery stream that came up
// short — and runs it on m (a fresh machine is made when m is nil). It makes
// exactly the decisions the discovery path would: stream at the configured
// period when that yields enough intervals, at a proportionally shrunk
// period when the program is short, and fall back to one exact
// full-fidelity run when the program cannot fit MinIntervals wall to wall.
// Results are bit-identical between the discovery and known-total paths:
// interval placement depends only on (total, sc).
func runKnown(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf, m *emu.Machine, total uint64) (Result, error) {
	period := sc.Period
	if len(intervalStarts(sc, period, total)) < sc.MinIntervals {
		if total < minSampledTotal(sc) {
			return runExact(ctx, prog, input, cfg, sc)
		}
		period = total / uint64(sc.MinIntervals)
	}
	if m == nil {
		m = emu.New(prog, input, 0)
	}
	r, _, err := runStream(ctx, m, cfg, sc, period, total)
	if err != nil {
		return Result{}, err
	}
	if r.Intervals < sc.MinIntervals {
		return runExact(ctx, prog, input, cfg, sc)
	}
	return r, nil
}

// runStream is the single-chain strategy: place, skip, measure, repeat, with
// one pipeline carrying warm state end to end on m (a fresh or freshly Reset
// machine). When known is zero the trace's end doubles as the instruction
// count, which the caller needs for the shrink decision: the stretch past
// the last interval is consumed on the plain (unwarmed) block path, since
// nothing downstream can observe its warming. When known is the instruction
// count from a prior pass, the stream stops at its last interval and never
// touches the tail.
func runStream(ctx context.Context, m *emu.Machine, cfg pipeline.Config, sc SampleConf, period, known uint64) (Result, uint64, error) {
	detail := sc.Warmup + sc.Interval
	if period < detail {
		period = detail
	}
	span := period - detail + 1
	maxN := cfg.MaxInsts
	cfgS := cfg
	cfgS.MaxInsts = 0 // interval budget is managed by RunInterval
	cfgS.Tracer = nil
	sim := pipeline.NewFromMachine(m, cfgS)

	var ivs []pipeline.IntervalResult
	// warmed counts only the fast-forward that reached an interval: in
	// discovery mode the stream warms its way toward a placement that may
	// turn out not to fit, and that dangling skip must not leak into the
	// accounting — WarmInsts has to come out bit-identical whether the
	// instruction count was known up front (memo) or discovered en route.
	var warmed, detailed, warmedPending uint64
	for k := uint64(0); ; k++ {
		start := k*period + sc.offAt(k, span)
		if maxN > 0 && start+detail > maxN {
			break
		}
		if known > 0 && start+detail > known {
			break
		}
		need := start - sim.Consumed()
		skipped, err := sim.Skip(ctx, need, min(sc.PredLead, need))
		if err != nil {
			return Result{}, 0, fmt.Errorf("sample: skip to interval %d: %w", k, err)
		}
		warmedPending += skipped
		if skipped < need || sim.TraceDone() {
			break
		}
		before := sim.Consumed()
		iv, err := sim.RunInterval(ctx, sc.Warmup, sc.Interval)
		if err != nil {
			return Result{}, 0, fmt.Errorf("sample: interval %d: %w", k, err)
		}
		detailed += sim.Consumed() - before
		warmed += warmedPending
		warmedPending = 0
		ivs = append(ivs, iv)
		if sim.TraceDone() {
			break
		}
	}
	total := known
	if known == 0 {
		// Consume the tail on the plain path so the trace's end yields the
		// instruction count; at most one stratum remains.
		for !sim.TraceDone() {
			rem := uint64(math.MaxUint64) / 2
			if maxN > 0 {
				c := sim.Consumed()
				if c >= maxN {
					break
				}
				rem = maxN - c
			}
			n, err := sim.SkipPlain(ctx, rem)
			if err != nil {
				return Result{}, 0, fmt.Errorf("sample: tail: %w", err)
			}
			if n == 0 {
				break
			}
		}
		total = sim.Consumed()
	}

	r := Result{
		Conf:          sc,
		Period:        period,
		TotalInsts:    total,
		Shards:        1,
		DetailedInsts: detailed,
		WarmInsts:     warmed,
	}
	aggregate(&r, ivs)
	return r, total, nil
}

// totalMemo caches dynamic instruction counts across Run calls, keyed by
// content hash of (program, input, MaxInsts). Counts are exact and
// architecture-independent, so the memo never changes a Result — it only
// removes the discovery pass. The map is capped: on overflow it is dropped
// wholesale (counts are cheap to rediscover, and the cap only exists to
// bound memory against endless streams of generated programs).
var (
	totalMemo  sync.Map
	totalMemoN atomic.Int64
)

const totalMemoCap = 4096

type totalKey struct {
	progH, inputH uint64
	maxInsts      uint64
}

// memoKey hashes the program text and input tape (FNV-1a). Hashing content
// rather than keying on pointers keeps the memo from pinning dead programs
// in memory, at a cost of a few microseconds per Run.
func memoKey(prog *isa.Program, input []int64, maxInsts uint64) totalKey {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(prog.Entry))
	mix(uint64(prog.GlobalWords))
	for i := range prog.Code {
		in := &prog.Code[i]
		mix(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs1)<<16 | uint64(in.Rs2)<<24)
		if in.UseImm {
			mix(uint64(in.Imm) | 1<<63)
		}
		mix(uint64(in.Target))
	}
	progH := h
	h = uint64(offset)
	for _, v := range input {
		mix(uint64(v))
	}
	return totalKey{progH: progH, inputH: h, maxInsts: maxInsts}
}

func storeTotal(k totalKey, total uint64) {
	if totalMemoN.Load() >= totalMemoCap {
		totalMemo.Range(func(k, _ any) bool {
			totalMemo.Delete(k)
			return true
		})
		totalMemoN.Store(0)
	}
	if _, loaded := totalMemo.LoadOrStore(k, total); !loaded {
		totalMemoN.Add(1)
	}
}

// intervalStarts places the intervals that fit whole inside total
// instructions: stratum k's interval at k*period + offAt(k). Starts are
// strictly increasing with at least warmup+interval between consecutive
// ones, so intervals never overlap.
func intervalStarts(sc SampleConf, period, total uint64) []uint64 {
	detail := sc.Warmup + sc.Interval
	span := period - detail + 1
	var starts []uint64
	for k := uint64(0); k*period+detail <= total; k++ {
		if s := k*period + sc.offAt(k, span); s+detail <= total {
			starts = append(starts, s)
		}
	}
	return starts
}

// runSharded is the parallel strategy: the interval chain is split into
// contiguous shards fanned out across cores, each fork warmed through a
// WarmLead-long lead-in. Wall-clock over fidelity — a shard's lead-in
// cannot rebuild the deep cache state a chained stream carries, a measured
// cost documented in EXPERIMENTS.md.
func runSharded(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	key := memoKey(prog, input, cfg.MaxInsts)
	var total uint64
	if v, ok := totalMemo.Load(key); ok {
		total = v.(uint64)
	} else {
		var err error
		total, err = countInsts(ctx, prog, input, cfg.MaxInsts)
		if err != nil {
			return Result{}, err
		}
		storeTotal(key, total)
	}

	detail := sc.Warmup + sc.Interval
	period := sc.Period
	starts := intervalStarts(sc, period, total)
	if len(starts) < sc.MinIntervals {
		if total < minSampledTotal(sc) {
			return runExact(ctx, prog, input, cfg, sc)
		}
		period = max(detail, total/uint64(sc.MinIntervals))
		starts = intervalStarts(sc, period, total)
	}
	nIntervals := len(starts)
	if nIntervals < sc.MinIntervals {
		return runExact(ctx, prog, input, cfg, sc)
	}

	shards := min(sc.Shards, nIntervals)

	// Contiguous balanced assignment: shard i owns intervals
	// [first[i], first[i]+count[i]).
	first := make([]int, shards)
	count := make([]int, shards)
	base, rem := nIntervals/shards, nIntervals%shards
	for i, at := 0, 0; i < shards; i++ {
		first[i] = at
		count[i] = base
		if i < rem {
			count[i]++
		}
		at += count[i]
	}

	// Replay pass: fork the architectural state a warm lead-in before each
	// shard's first interval. One sequential sweep of the program on the
	// block-batched fast path; the forks are Clone (one memory-image copy),
	// not Snapshot+Restore (three).
	forks := make([]*emu.Machine, shards)
	bases := make([]uint64, shards) // absolute position of each fork
	{
		m := emu.New(prog, input, 0)
		var cur uint64
		for i := 0; i < shards; i++ {
			start := starts[first[i]]
			lead := min(sc.WarmLead, start)
			bases[i] = start - lead
			n, err := advance(ctx, m, bases[i]-cur)
			cur += n
			if err != nil {
				return Result{}, err
			}
			if cur != bases[i] {
				return Result{}, fmt.Errorf("sample: replay ended at %d of %d instructions", cur, bases[i])
			}
			forks[i] = m.Clone()
		}
	}

	// Shard fan-out. Each shard builds its own pipeline from its fork,
	// warms through its lead-in, and walks its intervals in order; results
	// land at their global interval index, so aggregation order is
	// deterministic regardless of which shard finishes first.
	cfgShard := cfg
	cfgShard.MaxInsts = 0 // interval budget is managed by RunInterval
	cfgShard.Tracer = nil
	ivs := make([]pipeline.IntervalResult, nIntervals)
	warms := make([]uint64, shards)
	err := workpool.RunIndexed(ctx, shards, shards,
		func(i int) string { return fmt.Sprintf("sample shard %d", i) },
		nil,
		func(i int) error {
			sim := pipeline.NewFromMachine(forks[i], cfgShard)
			for j := 0; j < count[i]; j++ {
				target := starts[first[i]+j]
				need := target - (bases[i] + sim.Consumed())
				skipped, err := sim.Skip(ctx, need, min(sc.PredLead, need))
				warms[i] += skipped
				if err != nil {
					return fmt.Errorf("sample: shard %d skip: %w", i, err)
				}
				if skipped < need {
					return fmt.Errorf("sample: shard %d: trace ended %d instructions before interval %d", i, need-skipped, first[i]+j)
				}
				iv, err := sim.RunInterval(ctx, sc.Warmup, sc.Interval)
				if err != nil {
					return fmt.Errorf("sample: shard %d interval %d: %w", i, first[i]+j, err)
				}
				ivs[first[i]+j] = iv
			}
			return nil
		})
	if err != nil {
		return Result{}, err
	}
	var warmed uint64
	for _, w := range warms {
		warmed += w
	}

	r := Result{
		Conf:          sc,
		Period:        period,
		TotalInsts:    total,
		Shards:        shards,
		DetailedInsts: uint64(nIntervals) * detail,
		WarmInsts:     warmed,
	}
	aggregate(&r, ivs)
	return r, nil
}

// minSampledTotal is the shortest program worth sampling. Below
// 3×MinIntervals×(Warmup+Interval) the detailed share would exceed a third
// of the program — the savings vanish — and the cold-start transient, which
// functional warming reproduces optimistically (clean outcome streams train
// the predictors without wrong-path history pollution), occupies enough of
// the run to bias the estimate past its own confidence interval. Such
// programs run exact instead.
func minSampledTotal(sc SampleConf) uint64 {
	return 3 * uint64(sc.MinIntervals) * (sc.Warmup + sc.Interval)
}

// runExact is the full-fidelity fallback: one ordinary pipeline run wrapped
// in a Result so every sampled-mode consumer handles short programs (and
// disabled confs) without a second code path.
func runExact(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc SampleConf) (Result, error) {
	st, err := pipeline.RunCtx(ctx, prog, input, cfg)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Conf:          sc,
		Exact:         true,
		Full:          &st,
		TotalInsts:    st.Retired,
		DetailedInsts: st.Retired,
		EstCycles:     st.Cycles,
	}
	if st.Retired > 0 {
		r.MeanCPI = float64(st.Cycles) / float64(st.Retired)
	}
	return r, nil
}

// countInsts measures the program's dynamic instruction count on the
// predecoded fast path, honouring the same MaxInsts bound the full-fidelity
// trace feed applies.
func countInsts(ctx context.Context, prog *isa.Program, input []int64, maxInsts uint64) (uint64, error) {
	m := emu.New(prog, input, 0)
	if maxInsts == 0 {
		maxInsts = math.MaxUint64
	}
	return advance(ctx, m, maxInsts)
}

// advance runs m forward by at most n instructions on the block-batched fast
// path, polling ctx between batches. It returns the number retired, short
// only when the program halts. Faults surface as errors, matching the
// full-fidelity run, which fails on a faulting trace feed as well.
func advance(ctx context.Context, m *emu.Machine, n uint64) (uint64, error) {
	const pollEvery = 1 << 22
	var done uint64
	for done < n && !m.Halted() {
		if ctx != nil && done > 0 {
			if err := ctx.Err(); err != nil {
				return done, fmt.Errorf("sample: cancelled: %w", err)
			}
		}
		k, err := m.RunWarm(min(n-done, pollEvery), nil)
		done += k
		if err != nil {
			if errors.Is(err, emu.ErrHalted) {
				break
			}
			return done, fmt.Errorf("sample: functional execution: %w", err)
		}
	}
	return done, nil
}
