package pipeline

import (
	"dmp/internal/bpred"
	"dmp/internal/isa"
)

// entryKind distinguishes pipeline entry types.
type entryKind uint8

const (
	// kindInst is a regular fetched instruction.
	kindInst entryKind = iota
	// kindSelect is a select-µop inserted at a dpred merge point.
	kindSelect
	// kindMarker is a zero-width dpred bookkeeping marker: it switches the
	// rename-side register table at dispatch and occupies no ROB slot.
	kindMarker
)

// entry is a fetched instruction flowing through the fetch queue and the
// reorder buffer.
type entry struct {
	kind entryKind
	// refs counts the containers referencing the entry (fetch queue or
	// reorder buffer, plus the pending-flush list); it returns to the
	// per-Sim pool when the count drops to zero (see pool.go).
	refs int8
	seq  int64
	pc   int
	inst isa.Inst

	fetchCyc int64
	onTrace  bool

	// Branch bookkeeping (conditional branches and other control flow).
	taken     bool // actual outcome (on-trace only)
	predTaken bool
	misp      bool // fetch-time prediction disagreed with the trace
	// willFlush marks an on-trace misprediction that will flush at resolve.
	willFlush bool
	// loopCond marks a mispredicted loop-dpred instance whose flush is
	// conditional: cancelled if fetch rejoins the trace (late exit).
	loopCond bool
	// fetchHist is the global history at prediction time (for training).
	fetchHist bpred.History
	// vote is the predictor's fetch-time output, reused at retire.
	vote bpred.Vote
	// Flush-recovery checkpoint (willFlush/loopCond entries only).
	ckHist   bpred.History
	ckRAS    *bpred.RASSnapshot
	resumePC int

	// Memory address for on-trace loads/stores; -1 when unknown (wrong path).
	addr int64

	// Dynamic predication tags.
	sess        *dpredSession
	path        int8 // dpred path (-1: untagged)
	isDivBranch bool // the diverge branch that opened sess
	selReg      uint8

	// Dispatch-time results.
	dispatched bool
	doneCyc    int64
	tableCk    *[64]int64 // register table snapshot for flush restore
}

// isPredFalse reports whether the entry is a predicated instruction on the
// wrong side of its diverge branch (it retires as a NOP).
func (e *entry) isPredFalse() bool {
	return e.sess != nil && e.path >= 0 && e.path != e.sess.actualPath
}
