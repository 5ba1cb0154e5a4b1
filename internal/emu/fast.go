package emu

import (
	"fmt"
	"math"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// This file is the predecoded fast path of the emulator: one executor, exec,
// that runs the per-PC records produced by predecode.Compile instead of
// re-interpreting isa.Inst words. Every fast entry point is exec with a
// different budget, stop rule or hook set:
//
//   - RunBlock stops after one straight-line run (the profiler's per-branch
//     contract);
//   - RunWarm, and Run on top of it, loop over runs inside exec, reporting
//     warming events when hooks are given;
//   - StepBatch (the pipeline's trace feed), and Step on top of it, spend a
//     budget of one instruction per trace entry, in stretches that each
//     hold at most one memory access, at their head, so its address can be
//     read before it executes.
//
// The instruction switches share exec's body with the run loop on purpose:
// moving them into per-record helpers ran the block-batched path about 1.8x
// slower. Every entry point must be observationally identical to StepRef,
// the reference interpreter in emu.go; the differential suite in
// diff_test.go and FuzzEmuDiff enforce that trace-for-trace and
// fault-for-fault.

// BlockRun describes one block-batched execution step: the contiguous PC
// range [Start, Start+N) of instructions retired by the call and, when the
// run was ended by a conditional branch, that branch's pc and outcome.
type BlockRun struct {
	// Start is the pc of the first instruction retired.
	Start int
	// N is the number of instructions retired; they occupy the contiguous
	// range [Start, Start+N).
	N uint64
	// Branch is the pc of the conditional branch that ended the run, or -1
	// when the run ended for another reason (budget, unconditional control
	// flow, halt, or a fault).
	Branch int
	// Taken is the outcome of the ending branch (valid when Branch >= 0).
	Taken bool
}

// RunBlock executes from the current PC to the end of the straight-line run
// (inclusive of the control-flow instruction that ends it), retiring at most
// max instructions when max > 0. Because every conditional branch ends a
// run, a caller that inspects Branch/Taken after each call observes exactly
// the per-branch sequence a Step loop would — that is the contract the
// profiler's predictor hook depends on.
//
// Faults match Step: the faulting instruction's side effects are applied but
// it is not counted in N and the PC is left pointing at it.
func (m *Machine) RunBlock(max uint64) (BlockRun, error) {
	return m.exec(max, nil, true)
}

// StepBatch executes up to len(dst) instructions (at most max when max > 0),
// filling dst with their trace entries, and returns the number filled.
// Entries before a fault are valid; the fault is returned on the call that
// would produce no entries otherwise or alongside the partial batch. After
// the machine halts, the halt's entry ends a batch and the next call returns
// (0, ErrHalted).
func (m *Machine) StepBatch(dst []Trace, max uint64) (int, error) {
	lim := len(dst)
	if max > 0 && uint64(lim) > max {
		lim = int(max)
	}
	recs, code := m.pre.Recs, m.prog.Code
	n := 0
	for n < lim {
		if m.halted {
			if n == 0 {
				return 0, ErrHalted
			}
			return n, nil
		}
		// Execute a stretch of k instructions, one per trace entry, with at
		// most one memory access: at its head, whose effective address is
		// read before execution (a load may overwrite its own base
		// register). The stretch ends at the run's ender, if it reaches it.
		pc := m.PC
		var addr int64
		k := 1
		if uint(pc) < uint(len(recs)) {
			if r := &recs[pc]; memAccess(r) {
				addr = m.Regs[r.R1] + r.Imm
			}
			stop := min(int(recs[pc].NextCtl)+1, len(recs), pc+lim-n)
			for pc+k < stop && !memAccess(&recs[pc+k]) {
				k++
			}
		}
		br, err := m.exec(uint64(k), nil, true)
		if br.N > 0 {
			out := dst[n : n+int(br.N)]
			for i := range out {
				// Field by field: a composite literal is staged in a stack
				// temporary, and copying that out stalls store forwarding.
				e := &out[i]
				e.Inst = code[pc+i]
				e.PC, e.NextPC, e.Taken, e.Addr = pc+i, pc+i+1, false, 0
			}
			out[0].Addr = addr
			out[len(out)-1].NextPC, out[len(out)-1].Taken = m.PC, br.Taken
			n += len(out)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// memAccess reports whether r reads or writes data memory.
func memAccess(r *predecode.Rec) bool {
	return r.Lat == predecode.LatLoad || r.Kind == predecode.KSt
}

// exec is the emulator's single predecoded executor. It retires whole
// straight-line runs until max instructions have retired (unlimited when
// max == 0), the machine halts or faults, or, when oneRun is set, the first
// run ends. Each run executes its straight-line portion without per-record
// PC bounds checks, then the control-flow (or undecodable) instruction that
// ends it. A non-nil h receives the retired runs' warming events. The
// result covers the whole call, plus, for oneRun, the ending branch.
//
// While a run executes, m.PC stays on its first instruction: [m.PC, pc)
// have executed but are not yet retired. A faulting instruction's side
// effects stay applied, but it is not retired, reports no event, and the PC
// is left pointing at it.
func (m *Machine) exec(max uint64, h *WarmHooks, oneRun bool) (BlockRun, error) {
	br := BlockRun{Start: m.PC, Branch: -1}
	if m.halted {
		return br, ErrHalted
	}
	recs := m.pre.Recs
	regs := &m.Regs
	mem := m.Mem
	pc := m.PC
	if uint(pc) >= uint(len(recs)) {
		return br, fmt.Errorf("emu: pc %d out of range", pc)
	}
	if max == 0 {
		max = math.MaxUint64
	}
	left := max // budget not yet retired
	var err error
run:
	for {
		limit := int(recs[pc].NextCtl) // pc of the run-ending instruction
		// The ender costs one more instruction than the straight-line
		// portion, so it only runs when the budget strictly exceeds that
		// portion.
		if uint64(limit-pc) >= left {
			limit = pc + int(left)
		}
		// A run that reaches the end of the code segment has no ender: its
		// last instruction executes and then faults on the fall-through,
		// exactly like the reference interpreter. That instruction never
		// retires, so under hooks it is held back and re-run hook-free.
		if limit == len(recs) && h != nil {
			limit--
		}

		for ; pc < limit; pc++ {
			r := &recs[pc]
			switch r.Kind {
			case predecode.KNop:
			case predecode.KAddRR:
				regs[r.Rd] = regs[r.R1] + regs[r.R2]
			case predecode.KAddRI:
				regs[r.Rd] = regs[r.R1] + r.Imm
			case predecode.KSubRR:
				regs[r.Rd] = regs[r.R1] - regs[r.R2]
			case predecode.KSubRI:
				regs[r.Rd] = regs[r.R1] - r.Imm
			case predecode.KMulRR:
				regs[r.Rd] = regs[r.R1] * regs[r.R2]
			case predecode.KMulRI:
				regs[r.Rd] = regs[r.R1] * r.Imm
			case predecode.KDivRR:
				if d := regs[r.R2]; d == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] / d
				}
			case predecode.KDivRI:
				if r.Imm == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] / r.Imm
				}
			case predecode.KRemRR:
				if d := regs[r.R2]; d == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] % d
				}
			case predecode.KRemRI:
				if r.Imm == 0 {
					regs[r.Rd] = 0
				} else {
					regs[r.Rd] = regs[r.R1] % r.Imm
				}
			case predecode.KAndRR:
				regs[r.Rd] = regs[r.R1] & regs[r.R2]
			case predecode.KAndRI:
				regs[r.Rd] = regs[r.R1] & r.Imm
			case predecode.KOrRR:
				regs[r.Rd] = regs[r.R1] | regs[r.R2]
			case predecode.KOrRI:
				regs[r.Rd] = regs[r.R1] | r.Imm
			case predecode.KXorRR:
				regs[r.Rd] = regs[r.R1] ^ regs[r.R2]
			case predecode.KXorRI:
				regs[r.Rd] = regs[r.R1] ^ r.Imm
			case predecode.KShlRR:
				regs[r.Rd] = regs[r.R1] << (uint64(regs[r.R2]) & 63)
			case predecode.KShlRI:
				regs[r.Rd] = regs[r.R1] << (uint64(r.Imm) & 63)
			case predecode.KShrRR:
				regs[r.Rd] = regs[r.R1] >> (uint64(regs[r.R2]) & 63)
			case predecode.KShrRI:
				regs[r.Rd] = regs[r.R1] >> (uint64(r.Imm) & 63)
			case predecode.KCmpEQRR:
				regs[r.Rd] = b2i(regs[r.R1] == regs[r.R2])
			case predecode.KCmpEQRI:
				regs[r.Rd] = b2i(regs[r.R1] == r.Imm)
			case predecode.KCmpNERR:
				regs[r.Rd] = b2i(regs[r.R1] != regs[r.R2])
			case predecode.KCmpNERI:
				regs[r.Rd] = b2i(regs[r.R1] != r.Imm)
			case predecode.KCmpLTRR:
				regs[r.Rd] = b2i(regs[r.R1] < regs[r.R2])
			case predecode.KCmpLTRI:
				regs[r.Rd] = b2i(regs[r.R1] < r.Imm)
			case predecode.KCmpLERR:
				regs[r.Rd] = b2i(regs[r.R1] <= regs[r.R2])
			case predecode.KCmpLERI:
				regs[r.Rd] = b2i(regs[r.R1] <= r.Imm)
			case predecode.KCmpGTRR:
				regs[r.Rd] = b2i(regs[r.R1] > regs[r.R2])
			case predecode.KCmpGTRI:
				regs[r.Rd] = b2i(regs[r.R1] > r.Imm)
			case predecode.KCmpGERR:
				regs[r.Rd] = b2i(regs[r.R1] >= regs[r.R2])
			case predecode.KCmpGERI:
				regs[r.Rd] = b2i(regs[r.R1] >= r.Imm)
			case predecode.KMovI:
				regs[r.Rd] = r.Imm
			case predecode.KMov:
				regs[r.Rd] = regs[r.R1]
			case predecode.KLd:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(len(mem)) {
					err = fmt.Errorf("emu: pc %d: load address %d out of range", pc, a)
					break run
				}
				regs[r.Rd] = mem[a]
				if h != nil {
					h.Load(a)
				}
			case predecode.KLdNoWB:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(len(mem)) {
					err = fmt.Errorf("emu: pc %d: load address %d out of range", pc, a)
					break run
				}
				if h != nil {
					h.Load(a)
				}
			case predecode.KSt:
				a := regs[r.R1] + r.Imm
				if uint64(a) >= uint64(len(mem)) {
					err = fmt.Errorf("emu: pc %d: store address %d out of range", pc, a)
					break run
				}
				mem[a] = regs[r.R2]
			case predecode.KIn:
				if m.inPos < len(m.input) {
					regs[r.Rd] = m.input[m.inPos]
					m.inPos++
				} else {
					regs[r.Rd] = 0
				}
			case predecode.KInNoWB:
				if m.inPos < len(m.input) {
					m.inPos++
				}
			case predecode.KInAvail:
				regs[r.Rd] = int64(len(m.input) - m.inPos)
			case predecode.KOut:
				m.Output = append(m.Output, regs[r.R1])
			}
		}

		if pc == len(recs) {
			// Fell off the end of the code segment.
			pc--
			err = fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, pc+1)
			break
		}
		if uint64(pc-m.PC) == left {
			break // budget exhausted mid-run
		}
		r := &recs[pc]
		if pc == len(recs)-1 && h != nil && int(r.NextCtl) != pc {
			// The held-back last instruction of the code segment: retire
			// the run before it, then run it without hooks.
			if pc > m.PC {
				left -= uint64(pc - m.PC)
				h.Block(m.PC, pc-1)
				m.PC = pc
			}
			h = nil
			continue
		}

		// Control-flow (or undecodable) instruction ending the run. Its
		// warming events fire only once its target is known to be in range;
		// a faulting transfer is not retired.
		next, taken := pc+1, false
		switch r.Kind {
		case predecode.KBeqz, predecode.KBnez:
			taken = (regs[r.R1] == 0) == (r.Kind == predecode.KBeqz)
			if taken {
				next = int(r.Target)
			}
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Branch(pc, taken, int(r.Target))
			}
		case predecode.KJmp:
			next = int(r.Target)
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Jump(pc, next)
			}
		case predecode.KCall:
			regs[isa.RegLR] = int64(pc + 1)
			next = int(r.Target)
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Call(pc, next)
			}
		case predecode.KCallR:
			// The link register is written before the target register is
			// read, so callr through the link register jumps to pc+1.
			regs[isa.RegLR] = int64(pc + 1)
			next = int(regs[r.R1])
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Call(pc, next)
			}
		case predecode.KRet:
			next = int(regs[r.R1]) // R1 == RegLR
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Ret(pc)
			}
		case predecode.KJr:
			next = int(regs[r.R1])
			if h != nil && uint(next) < uint(len(recs)) {
				h.Block(m.PC, pc)
				h.Jump(pc, next)
			}
		case predecode.KHalt:
			m.halted = true
			next = pc
			if h != nil {
				h.Block(m.PC, pc)
			}
		default: // KBad
			err = fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, m.prog.Code[pc].Op)
			break run
		}
		if uint(next) >= uint(len(recs)) {
			err = fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next)
			break
		}
		left -= uint64(pc - m.PC + 1)
		m.PC = next
		if m.halted || left == 0 || oneRun {
			br.N = max - left
			m.Retired += br.N
			if oneRun && r.IsCondBranch() {
				br.Branch, br.Taken = pc, taken
			}
			return br, nil
		}
		pc = next
	}

	// The call stopped inside a run (budget, fault or fall-off): retire
	// what executed before pc; the PC parks on pc (the next instruction, or
	// the one that faulted).
	if pc > m.PC {
		left -= uint64(pc - m.PC)
		if h != nil {
			h.Block(m.PC, pc-1)
		}
	}
	m.PC = pc
	br.N = max - left
	m.Retired += br.N
	return br, err
}
