package pipeline

import (
	"dmp/internal/isa"
	"dmp/internal/trace"
)

// This file implements the fetch-side control of dynamic predication:
// session entry, CFM parking and merging, select-µop insertion, and the
// loop-predication cases (correct, early-exit, late-exit, no-exit).

// enterForwardDpred opens a forward (hammock) dpred session at the diverge
// branch entry e and forks the second fetch stream.
func (s *Sim) enterForwardDpred(st *stream, e *entry, annot *isa.DivergeInfo) (bool, int) {
	sess := s.allocSession()
	sess.branchPC = e.pc
	sess.branchSeq = e.seq
	sess.annot = annot
	sess.enterCyc = s.cycle
	sess.resolveCyc = -1
	sess.parkedAt = [2]int{parkNone, parkNone}
	sess.savedMisp = e.misp
	s.dp = sess
	sess.refs++
	e.sess = sess
	e.isDivBranch = true
	s.stats.DpredEntries++
	s.event(trace.Event{Kind: trace.KindDpredEnter, Cycle: s.cycle, Seq: e.seq, PC: e.pc, Branch: e.pc})

	predPC, otherPC := e.inst.Target, e.pc+1
	if !e.predTaken {
		predPC, otherPC = otherPC, predPC
	}
	st2 := s.allocStream(otherPC, false)
	st2.ras.CopyFrom(st.ras)
	st2.hist = st.hist.Push(!e.predTaken)
	st2.path = 1
	st.hist = st.hist.Push(e.predTaken)
	st.path = 0
	st.pc = predPC
	st.callDepth = 0
	st2.callDepth = 0
	// The stream following the actual direction carries the trace.
	if e.predTaken == e.taken {
		st.onTrace, st2.onTrace = true, false
		sess.actualPath = 0
	} else {
		st.onTrace, st2.onTrace = false, true
		sess.actualPath = 1
	}
	s.streams = append(s.streams, st2)
	// The diverge branch itself behaves like any predicted branch in the
	// front end: a predicted-taken entry redirects fetch (ending the cycle),
	// a predicted-not-taken entry keeps fetching its fall-through path; the
	// second stream starts fetching next cycle.
	if e.predTaken {
		return s.takenRedirect(st, e.pc, e.inst.Target), 0
	}
	return true, 1
}

// parkStream parks a forward-dpred path at a CFM point (at=address) or a
// return CFM (at=parkRet) and merges when both paths stopped at the same
// point.
func (s *Sim) parkStream(st *stream, at int) {
	st.parkedAt = at
	if s.dp != nil && st.path >= 0 {
		s.dp.parkedAt[st.path] = at
		if s.dp.bothParkedSame() {
			s.mergeForward()
		}
	}
}

// mergeForward ends a forward session at a reached CFM point: select-µops
// reconcile the registers written on either path.
func (s *Sim) mergeForward() {
	sess := s.dp
	sess.merged = true
	s.stats.DpredMerged++
	s.fbRecord(sess.branchPC, sess.savedMisp)
	if sess.savedMisp {
		s.stats.DpredSavedFlushes++
	}
	mergePC := sess.branchPC
	if sess.parkedAt[0] >= 0 {
		mergePC = sess.parkedAt[0] // address CFM; return CFMs keep the branch PC
	}
	s.endSession(sess, trace.KindDpredMerge, sess.savedMisp, "", mergePC)
	s.enqueueMarker(sess)
	s.enqueueSelects(sess, sess.selectUopRegs(s.selRegs))
	s.collapseForward(sess)
}

// endForwardDpred ends a forward session when the diverge branch resolves
// before both paths merged. No select-µops are needed: the correct path's
// rename map is simply adopted (the marker performs the table switch).
func (s *Sim) endForwardDpred(viaFlush bool) {
	sess := s.dp
	if !sess.merged {
		s.stats.DpredNoMerge++
		saved := sess.savedMisp && !viaFlush
		s.fbRecord(sess.branchPC, saved)
		if saved {
			s.stats.DpredSavedFlushes++
		}
		s.endSession(sess, trace.KindDpredFallback, saved, "", sess.branchPC)
	}
	s.enqueueMarker(sess)
	s.collapseForward(sess)
}

// collapseForward keeps the correct-path stream as the single fetch stream;
// the dropped one is parked for reuse by the next session.
func (s *Sim) collapseForward(sess *dpredSession) {
	var keep *stream
	for _, st := range s.streams {
		if st.path == sess.actualPath {
			keep = st
		}
	}
	if keep == nil {
		keep = s.streams[0]
	}
	keep.path = -1
	if keep.parkedAt != parkDead {
		keep.parkedAt = parkNone
	}
	for i, st := range s.streams {
		if st != keep {
			s.recycleStream(st)
		}
		s.streams[i] = nil
	}
	s.streams = s.streams[:1]
	s.streams[0] = keep
	s.closeSession(sess)
}

// enterLoopDpred opens a loop dpred session at a low-confidence loop diverge
// branch and processes the entry instance.
func (s *Sim) enterLoopDpred(st *stream, e *entry, annot *isa.DivergeInfo) (bool, int) {
	sess := s.allocSession()
	sess.branchPC = e.pc
	sess.branchSeq = e.seq
	sess.annot = annot
	sess.isLoop = true
	sess.enterCyc = s.cycle
	sess.resolveCyc = -1
	s.dp = sess
	sess.refs++
	e.sess = sess
	e.isDivBranch = true
	st.path = 0
	s.stats.DpredEntries++
	s.stats.DpredLoopEntries++
	s.event(trace.Event{Kind: trace.KindDpredEnter, Cycle: s.cycle, Seq: e.seq, PC: e.pc, Branch: e.pc, Loop: true})
	return s.onTraceLoopInstance(st, e)
}

// onTraceLoopInstance handles an on-trace instance of the predicated loop
// branch: it closes the previous iteration with select-µops and routes the
// four outcome cases.
func (s *Sim) onTraceLoopInstance(st *stream, e *entry) (bool, int) {
	sess := s.dp
	s.enqueueSelects(sess, sess.takeLoopWritten(s.selRegs))
	sess.predsUsed++
	if sess.predsUsed > s.cfg.PredicateRegs {
		// Out of predicate registers: stop predicating; the loop continues
		// unpredicated.
		s.endSession(sess, trace.KindLoopEnd, false, "preds-exhausted", e.pc)
		s.closeSession(sess)
	}

	s.predict(st, e)
	e.misp = e.predTaken != e.taken
	cont := loopContinueTaken(sess.annot)

	if !e.misp {
		st.hist = st.hist.Push(e.predTaken)
		if e.predTaken != cont && s.dp == sess {
			// Correctly predicted loop exit: the CFM (loop exit) is reached;
			// dpred ends with only select-µop overhead.
			s.enqueueSelects(sess, sess.takeLoopWritten(s.selRegs))
			s.endSession(sess, trace.KindLoopEnd, false, "exit-predicted", e.pc)
			s.closeSession(sess)
			st.path = -1
		}
		if e.predTaken {
			st.pc = e.inst.Target
			return s.takenRedirect(st, e.pc, e.inst.Target), 0
		}
		st.pc = e.pc + 1
		return true, 1
	}

	// Mispredicted instance.
	if e.predTaken == cont && s.dp == sess {
		// Trace exits, predictor keeps looping: late-exit or no-exit. Fetch
		// continues into extra predicated iterations; the flush is
		// conditional on not rejoining the trace at the loop exit.
		e.loopCond = true
		e.fetchHist = st.hist
		e.ckHist = st.hist.Push(e.taken)
		e.ckRAS = s.allocRASSnap()
		st.ras.SnapshotInto(e.ckRAS)
		if nxt, ok := s.tr.Peek(); ok {
			e.resumePC = nxt.PC
		} else {
			e.resumePC = e.pc
		}
		sess.pendingLoop = e
		st.onTrace = false
		st.path = 1
		st.hist = st.hist.Push(e.predTaken)
		if e.predTaken {
			st.pc = e.inst.Target
			return s.takenRedirect(st, e.pc, e.inst.Target), 0
		}
		st.pc = e.pc + 1
		return true, 1
	}

	// Trace continues, predictor exits: early-exit (flush at resolve), or a
	// plain misprediction if predication already ended.
	if s.dp == sess {
		s.stats.LoopEarlyExit++
		s.fbRecord(sess.branchPC, false)
		s.endSession(sess, trace.KindLoopEarlyExit, false, "", e.pc)
		s.closeSession(sess)
	}
	st.path = -1
	st.hist = st.hist.Push(e.predTaken)
	s.markFlush(st, e)
	st.onTrace = false
	if e.predTaken {
		st.pc = e.inst.Target
		return s.takenRedirect(st, e.pc, e.inst.Target), 0
	}
	st.pc = e.pc + 1
	return true, 1
}

// offTraceLoopInstance handles an extra (wrong-path) iteration's loop-branch
// instance during a loop dpred session.
func (s *Sim) offTraceLoopInstance(st *stream, e *entry) (bool, int) {
	sess := s.dp
	s.enqueueSelects(sess, sess.takeLoopWritten(s.selRegs))
	sess.predsUsed++
	if sess.predsUsed > s.cfg.PredicateRegs {
		// Out of predicates while on extra iterations: stall until the
		// pending flush or resolution cleans up.
		st.parkedAt = parkDead
		return false, 0
	}

	s.predict(st, e)
	cont := loopContinueTaken(sess.annot)
	st.hist = st.hist.Push(e.predTaken)

	if e.predTaken == cont {
		// Keep looping on the wrong path.
		if e.predTaken {
			st.pc = e.inst.Target
			return s.takenRedirect(st, e.pc, e.inst.Target), 0
		}
		st.pc = e.pc + 1
		return true, 1
	}

	// Predictor exits the loop.
	exitPC := loopExitPC(e.pc, e.inst, sess.annot)
	if pl := sess.pendingLoop; pl != nil && exitPC == pl.resumePC {
		// Late exit: fetch rejoins the control-independent post-loop code;
		// the pending flush is cancelled and the extra iterations become
		// NOPs at resolution.
		s.stats.LoopLateExit++
		s.stats.DpredSavedFlushes++
		s.fbRecord(sess.branchPC, true)
		s.endSession(sess, trace.KindLoopLateExit, true, "", exitPC)
		pl.loopCond = false
		sess.pendingLoop = nil
		st.onTrace = true
		st.path = -1
		st.hist = pl.ckHist
		if pl.ckRAS != nil {
			st.ras.Restore(*pl.ckRAS)
		}
		// The cancelled flush no longer needs its checkpoints; return them
		// to the pools now rather than when the entry leaves the machine.
		s.releaseCk(pl)
		st.pc = exitPC
		s.enqueueSelects(sess, sess.takeLoopWritten(s.selRegs))
		s.closeSession(sess)
		return false, 0
	}
	// Exits to somewhere that is not the trace's continuation: keep walking
	// the wrong path; the no-exit flush will clean up.
	st.pc = exitPC
	return false, 0
}

// endLoopDpredByResolve ends a loop session whose predicated branch
// instances have all resolved and no conditional flush is pending.
func (s *Sim) endLoopDpredByResolve() {
	sess := s.dp
	if sess.pendingLoop != nil {
		// The no-exit flush (or a late-exit rejoin) will end the session.
		return
	}
	s.fbRecord(sess.branchPC, false)
	s.enqueueSelects(sess, sess.takeLoopWritten(s.selRegs))
	s.endSession(sess, trace.KindLoopEnd, false, "resolved", sess.branchPC)
	s.closeSession(sess)
	for _, st := range s.streams {
		if st.path >= 0 {
			st.path = -1
		}
	}
}

// enqueueMarker inserts the zero-width dpred-end marker that switches the
// rename-side register table when it reaches the dispatch stage.
func (s *Sim) enqueueMarker(sess *dpredSession) {
	s.seq++
	e := s.allocEntry()
	e.kind = kindMarker
	e.seq = s.seq
	e.fetchCyc = s.cycle
	e.sess = sess
	e.path = -1
	e.addr = -1
	sess.refs++
	s.fqPush(e)
}

// enqueueSelects inserts one select-µop per written register.
func (s *Sim) enqueueSelects(sess *dpredSession, regs []uint8) {
	for _, r := range regs {
		s.seq++
		e := s.allocEntry()
		e.kind = kindSelect
		e.seq = s.seq
		e.fetchCyc = s.cycle
		e.sess = sess
		e.path = -1
		e.addr = -1
		e.selReg = r
		e.onTrace = true
		sess.refs++
		s.fqPush(e)
	}
}
