package pipeline

import (
	"context"
	"fmt"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/emu"
	"dmp/internal/predecode"
	"dmp/internal/trace"
)

// This file is the pipeline side of SMARTS-style sampled simulation
// (internal/sample): a Sim created from a mid-run architectural checkpoint
// alternates functional fast-forward (Skip) with bounded detailed intervals
// (RunInterval), measuring IPC only inside a retirement-delimited window so
// that neither the detailed warmup nor the drain tail pollutes the estimate.
// Microarchitectural state — branch predictor, confidence estimator, BTB,
// caches, global history — is deliberately carried across the boundary and
// NOT reset: the warmup portion of each interval re-trains whatever went
// stale during the skip, which is the SMARTS error model.

// NewFromMachine creates a simulator that consumes its correct path from m,
// starting at m's current architectural state; New is NewFromMachine on a
// fresh machine at the program entry point. The simulator takes ownership of
// m for the duration of the run. The sampler passes a machine restored from
// an emu.Snapshot with MaxInsts 0 and drives it interval by interval with
// RunInterval, which extends the trace budget, instead of with Run.
func NewFromMachine(m *emu.Machine, cfg Config) *Sim {
	prog := m.Program()
	s := &Sim{
		cfg:      cfg,
		prog:     prog,
		code:     prog.Code,
		recs:     m.Predecoded().Recs,
		tr:       newTraceReader(m, cfg.MaxInsts),
		pred:     bpred.NewPerceptron(cfg.PerceptronTables, cfg.PerceptronHist),
		conf:     bpred.NewConfidence(cfg.ConfEntries, cfg.ConfHistBits, cfg.ConfThreshold),
		btb:      bpred.NewBTB(cfg.BTBEntries),
		hier:     cache.NewHierarchyFrom(cfg.hierConfig()),
		iHit:     cfg.ICache.HitCycles,
		dHit:     cfg.DCache.HitCycles,
		sfTag:    make([]int64, storeFwdSize),
		sfCyc:    make([]int64, storeFwdSize),
		issueTag: make([]int64, issueRingSize),
		issueCnt: make([]uint16, issueRingSize),
		selRegs:  make([]uint8, 0, 64),
	}
	// Address 0 is a valid store-forwarding tag, so empty slots hold -1.
	for i := range s.sfTag {
		s.sfTag[i] = -1
	}
	s.streams = []*stream{newStream(m.PC, true, cfg.RASDepth)}
	return s
}

// Skip functionally advances the machine past n correct-path instructions
// without simulating their timing, while warming the long-persistence
// microarchitectural state — caches, BTB, global history, RAS — with each
// skipped instruction's outcome. This is SMARTS functional warming: cache
// contents decay over thousands-of-instruction skips far too slowly for a
// short detailed warmup to rebuild (the L2 alone holds 16K lines), so
// fast-forward must keep them current. The last predTail instructions
// additionally train the branch predictor and confidence estimator:
// per-branch predictor training is by far the most expensive warming
// operation (measured at roughly half the functional-warming CPU time), and
// the small predictor tables re-converge over a few tens of thousands of
// branch outcomes, so training through the skip's tail is as accurate as —
// and several times cheaper than — training through all of it. Skip returns
// the number actually skipped, short only when the program halts (or
// faults) inside the skip. ctx, when non-nil, cancels mid-fast-forward at
// block-chunk boundaries.
func (s *Sim) Skip(ctx context.Context, n, predTail uint64) (uint64, error) {
	s.tr.ctx = ctx
	if predTail >= n {
		return s.tr.skip(n, s.warmEntryPred, s.predHooks())
	}
	done, err := s.tr.skip(n-predTail, s.warmEntry, s.warmHooks())
	if err != nil || done < n-predTail {
		return done, err
	}
	k, err := s.tr.skip(predTail, s.warmEntryPred, s.predHooks())
	return done + k, err
}

// SkipPlain advances the machine past n correct-path instructions with no
// warming at all — the raw block-batched path. The sampling layer uses it
// for the stretch beyond the last detailed interval, where warming can no
// longer influence any measurement and would only burn the warm executor's
// per-event overhead.
func (s *Sim) SkipPlain(ctx context.Context, n uint64) (uint64, error) {
	s.tr.ctx = ctx
	return s.tr.skip(n, nil, nil)
}

// warmHooks returns the hook set the emulator's block-batched warm executor
// (emu.RunWarm) drives: the same structures warmEntry touches, fed from
// block extents and control-flow events instead of per-instruction trace
// entries.
func (s *Sim) warmHooks() *emu.WarmHooks {
	if s.wh == nil {
		s.wh = s.buildWarmHooks(false)
	}
	return s.wh
}

// predHooks is warmHooks plus perceptron and confidence-estimator training
// on every conditional branch — the Skip tail's hook set.
func (s *Sim) predHooks() *emu.WarmHooks {
	if s.whPred == nil {
		s.whPred = s.buildWarmHooks(true)
	}
	return s.whPred
}

func (s *Sim) buildWarmHooks(trainPred bool) *emu.WarmHooks {
	branch := func(pc int, taken bool, target int) {
		st := s.streams[0]
		st.hist = st.hist.Push(taken)
		if taken {
			s.btb.Update(pc, target)
		}
	}
	if trainPred {
		branch = func(pc int, taken bool, target int) {
			st := s.streams[0]
			pred := s.pred.PredictAndTrain(pc, st.hist, taken)
			s.conf.Update(pc, st.hist, pred != taken)
			st.hist = st.hist.Push(taken)
			if taken {
				s.btb.Update(pc, target)
			}
		}
	}
	return &emu.WarmHooks{
		Block: func(start, end int) {
			st := s.streams[0]
			first, last := start>>3, end>>3
			if first == st.lastLine {
				first++
			}
			for l := first; l <= last; l++ {
				s.hier.I.Access(cache.InstAddr(l << 3))
			}
			st.lastLine = last
		},
		Load: func(addr int64) {
			s.hier.D.Access(cache.DataAddr(addr))
		},
		Branch: branch,
		Call: func(pc, next int) {
			s.streams[0].ras.Push(pc + 1)
			s.btb.Update(pc, next)
		},
		Ret: func(pc int) {
			s.streams[0].ras.Pop()
		},
		Jump: func(pc, next int) {
			s.btb.Update(pc, next)
		},
	}
}

// warmEntry / warmEntryPred feed one already-materialised trace entry
// (buffered lookahead the reader drained before switching to the
// block-batched path) to the same warm state the hook sets maintain: the
// I-cache at line granularity, the D-cache for on-trace load addresses
// (stores do not access the cache in the detailed model either), the global
// history for conditional branches, the BTB for taken control flow, and the
// RAS for calls and returns.
func (s *Sim) warmEntry(e *emu.Trace) { s.warmTraceEntry(e, false) }

func (s *Sim) warmEntryPred(e *emu.Trace) { s.warmTraceEntry(e, true) }

func (s *Sim) warmTraceEntry(e *emu.Trace, trainPred bool) {
	st := s.streams[0]
	if line := e.PC >> 3; line != st.lastLine {
		s.hier.I.Access(cache.InstAddr(e.PC))
		st.lastLine = line
	}
	rec := &s.recs[e.PC]
	switch {
	case rec.Flags&predecode.FlagCondBranch != 0:
		if trainPred {
			pred := s.pred.PredictAndTrain(e.PC, st.hist, e.Taken)
			s.conf.Update(e.PC, st.hist, pred != e.Taken)
		}
		st.hist = st.hist.Push(e.Taken)
		if e.Taken {
			s.btb.Update(e.PC, e.NextPC)
		}
	case rec.Kind == predecode.KCall || rec.Kind == predecode.KCallR:
		st.ras.Push(e.PC + 1)
		s.btb.Update(e.PC, e.NextPC)
	case rec.Kind == predecode.KRet:
		st.ras.Pop()
	case rec.Flags&predecode.FlagControl != 0:
		s.btb.Update(e.PC, e.NextPC)
	case rec.Lat == predecode.LatLoad:
		if e.Addr >= 0 {
			s.hier.D.Access(cache.DataAddr(e.Addr))
		}
	}
}

// TraceDone reports whether the functional trace has ended (halt or fault):
// no further interval can run.
func (s *Sim) TraceDone() bool { return s.tr.halted || s.tr.err != nil }

// Consumed returns the number of correct-path instructions consumed so far,
// fetched and skipped alike.
func (s *Sim) Consumed() uint64 { return s.tr.count }

// IntervalResult reports the measured window of one detailed interval.
type IntervalResult struct {
	// Retired is the number of on-trace instructions retired inside the
	// measurement window (the configured measure length when Complete).
	Retired uint64
	// Cycles is the window's cycle span: from the retirement of the last
	// warmup instruction to the retirement of the last measured one.
	Cycles int64
	// Mispredicted / CondBranches / Flushes are window deltas of the
	// corresponding Stats counters.
	Mispredicted uint64
	CondBranches uint64
	Flushes      uint64
	// Complete reports that the window closed by retiring its full
	// measurement length; a trace that ends mid-window leaves a partial
	// (possibly zero-retirement) interval.
	Complete bool
}

// Degenerate reports a window that retired nothing — the trace ended before
// the warmup did. Such intervals carry no timing information and must be
// excluded from the CPI estimate (but surfaced, not dropped silently).
func (r IntervalResult) Degenerate() bool { return r.Retired == 0 }

// CPI returns the window's cycles per instruction.
func (r IntervalResult) CPI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Retired)
}

// sampleWindow is the retirement-delimited measurement window RunInterval
// arms: it opens when the warmup-th on-trace instruction of the interval
// retires and closes when the (warmup+measure)-th does, excluding both the
// warmup and the drain tail from the measured cycle span.
type sampleWindow struct {
	armed  bool
	opened bool
	closed bool
	// startRetired/endRetired are absolute Stats.Retired marks.
	startRetired, endRetired uint64
	startCycle, endCycle     int64
	start, end               winCounters
}

// winCounters is the subset of Stats captured at window edges; deltas give
// the window's event counts for scaled per-kilo-instruction estimates.
type winCounters struct {
	misp, condBr, flushes uint64
}

func (s *Sim) winCounters() winCounters {
	return winCounters{misp: s.stats.Mispredicted, condBr: s.stats.CondBranches, flushes: s.stats.Flushes}
}

// winMark runs at each on-trace retirement while a window is armed.
func (s *Sim) winMark() {
	r := s.stats.Retired
	if !s.win.opened {
		if r < s.win.startRetired {
			return
		}
		s.win.opened = true
		s.win.startCycle = s.cycle
		s.win.start = s.winCounters()
	}
	if r >= s.win.endRetired {
		s.win.closed = true
		s.win.armed = false
		s.win.endCycle = s.cycle
		s.win.end = s.winCounters()
	}
}

// resetForResume restores the front end to a single on-trace stream pointing
// at the next trace entry, after a drain left the machine with sampling
// debris: an open dpred session whose diverge branch never resolved, parked
// or off-trace streams, pending flushes, and the fetchDone latch. Predictor,
// BTB, cache and history state is kept warm on purpose (see the file
// comment); the RAS may be stale, which the warmup absorbs exactly like a
// context switch would on real hardware.
func (s *Sim) resetForResume() {
	// Force-close a session left open across the boundary, mirroring the
	// doFlush cancellation path.
	if s.dp != nil {
		s.endSession(s.dp, trace.KindDpredFlushCancel, false, "sample-boundary", s.dp.branchPC)
		s.dp.pendingLoop = nil
		s.closeSession(s.dp)
	}
	// Drop pending flushes; their entries have already retired or squashed.
	for i := s.flHead; i < len(s.flushList); i++ {
		f := s.flushList[i]
		s.flushList[i] = nil
		s.releaseCk(f)
		s.decRef(f)
	}
	s.flushList = s.flushList[:0]
	s.flHead = 0
	// Collapse to one stream and repoint it at the trace.
	if len(s.streams) == 2 {
		s.recycleStream(s.streams[1])
		s.streams[1] = nil
		s.streams = s.streams[:1]
	}
	st := s.streams[0]
	st.onTrace = true
	st.parkedAt = parkNone
	st.path = -1
	st.callDepth = 0
	st.lastLine = -1
	st.stalledUntil = 0
	s.fetchDone = false
	if tre, ok := s.tr.Peek(); ok {
		st.pc = tre.PC
	} else {
		st.parkedAt = parkDead
		s.fetchDone = true
	}
}

// RunInterval runs one detailed interval: warmup on-trace instructions to
// re-train microarchitectural state after a skip, then measure instructions
// under an armed measurement window, then drains the pipeline. The trace
// budget is extended by exactly warmup+measure, so the front end stops
// fetching new correct-path work at the interval edge and the drain costs
// only the in-flight tail. The caller alternates Skip and RunInterval; the
// first interval after NewFromMachine needs no Skip.
func (s *Sim) RunInterval(ctx context.Context, warmup, measure uint64) (IntervalResult, error) {
	if measure == 0 {
		return IntervalResult{}, fmt.Errorf("pipeline: interval measure length must be positive")
	}
	s.ctx = ctx
	s.tr.ctx = ctx
	s.tr.extendBudget(warmup + measure)
	s.resetForResume()
	base := s.stats.Retired
	s.win = sampleWindow{armed: true, startRetired: base + warmup, endRetired: base + warmup + measure}
	if warmup == 0 {
		// The window opens at the interval edge, before anything retires.
		s.win.opened = true
		s.win.startCycle = s.cycle
		s.win.start = s.winCounters()
	}
	err := s.runLoop()
	w := &s.win
	w.armed = false
	if err != nil {
		return IntervalResult{}, err
	}
	if w.opened && !w.closed {
		// Trace ended mid-window: close at the drain edge for a partial
		// (shorter) measurement rather than losing the interval entirely.
		w.endCycle = s.cycle
		w.end = s.winCounters()
	}
	res := IntervalResult{Complete: w.closed}
	if w.opened {
		res.Retired = s.stats.Retired - w.startRetired
		res.Cycles = w.endCycle - w.startCycle
		res.Mispredicted = w.end.misp - w.start.misp
		res.CondBranches = w.end.condBr - w.start.condBr
		res.Flushes = w.end.flushes - w.start.flushes
	}
	return res, nil
}
