package emu

// WarmHooks receives the microarchitecturally relevant events of a warm
// fast-forward (RunWarm): retired straight-line extents for I-cache line
// warming, retired load addresses for D-cache warming, and retired control
// transfers for BTB / RAS / branch-history warming. A nil *WarmHooks means
// no events; in a non-nil one every hook must be non-nil, RunWarm does not
// check. Hooks observe events in retirement order.
//
// The struct deliberately has no per-instruction hook: per-instruction
// callbacks are what makes step-based warming an order of magnitude slower
// than block-batched execution. Events fire only at loads (~1 in 4
// instructions) and control flow (~1 in 6), so the straight-line majority
// runs at full RunBlock speed.
type WarmHooks struct {
	// Block is called with each retired straight-line extent [start, end]
	// (pc bounds, inclusive; the ending control-flow instruction is
	// included when it retired).
	Block func(start, end int)
	// Load is called with each retired load's effective word address,
	// after its bounds check passed.
	Load func(addr int64)
	// Branch is called for each retired conditional branch with its taken
	// target.
	Branch func(pc int, taken bool, target int)
	// Call is called for each retired call with its target (the return
	// address is pc+1).
	Call func(pc, next int)
	// Ret is called for each retired return.
	Ret func(pc int)
	// Jump is called for each retired unconditional jump (jmp/jr).
	Jump func(pc, next int)
}

// RunWarm executes up to max instructions (unlimited when max == 0) on the
// block-batched executor, reporting warming events through h (none when h is
// nil), and returns the number of instructions retired. It loops over whole
// straight-line runs inside the executor, so one call covers any number of
// runs; fault and halt semantics match RunBlock exactly (fault: side effects
// applied, PC parked on the faulting instruction, which is not counted and
// reports no event; halt: counted, further calls return ErrHalted).
// TestRunWarmMatchesRunBlock pins state-equivalence against RunBlock.
func (m *Machine) RunWarm(max uint64, h *WarmHooks) (uint64, error) {
	br, err := m.exec(max, h, false)
	return br.N, err
}
