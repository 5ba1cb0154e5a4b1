// Package emu implements a functional (architectural) emulator for DISA
// binaries. It executes one instruction per Step and reports a retirement
// trace entry that downstream consumers use: the edge profiler replays the
// trace to collect profiles, and the cycle-level pipeline model consumes it
// as the correct execution path while synthesising wrong-path activity
// itself.
package emu

import (
	"errors"
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// DefaultMemWords is the default data-memory size in 8-byte words.
const DefaultMemWords = 1 << 20

// ErrHalted is returned by Step after the machine has executed a halt.
var ErrHalted = errors.New("emu: machine halted")

// Trace describes one architecturally retired instruction.
type Trace struct {
	// PC is the address of the retired instruction.
	PC int
	// Inst is the instruction itself.
	Inst isa.Inst
	// NextPC is the address of the next instruction in program order.
	NextPC int
	// Taken is valid for conditional branches.
	Taken bool
	// Addr is the effective memory address for loads and stores, else 0.
	Addr int64
}

// Machine is a DISA architectural machine: registers, a flat word-addressed
// data memory, an input tape and an output stream.
type Machine struct {
	prog *isa.Program
	// pre is the predecoded form of prog.Code, built once per machine and
	// consumed by the fast execution paths in fast.go.
	pre *predecode.Program
	// Regs holds the 64 architectural registers. Regs[0] stays zero.
	Regs [isa.NumRegs]int64
	// Mem is the data memory in words. Globals live at its bottom; the stack
	// grows down from the top.
	Mem []int64
	// PC is the next instruction to execute.
	PC int
	// Output accumulates values written with the out instruction.
	Output []int64

	input  []int64
	inPos  int
	halted bool
	// Retired counts architecturally executed instructions.
	Retired uint64
}

// New creates a machine for the program with memWords of data memory
// (DefaultMemWords if memWords <= 0) and the given input tape. The stack
// pointer starts at the top of memory.
func New(p *isa.Program, input []int64, memWords int) *Machine {
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	if memWords < p.GlobalWords+1024 {
		memWords = p.GlobalWords + 1024
	}
	m := &Machine{
		prog:  p,
		pre:   predecode.Shared(p),
		Mem:   make([]int64, memWords),
		PC:    p.Entry,
		input: input,
	}
	m.Regs[isa.RegSP] = int64(memWords)
	return m
}

// Predecoded returns the machine's predecoded program, shared with the
// pipeline so the code segment is lowered once per simulation.
func (m *Machine) Predecoded() *predecode.Program { return m.pre }

// Program returns the program being executed.
func (m *Machine) Program() *isa.Program { return m.prog }

// Halted reports whether the machine has executed a halt instruction.
func (m *Machine) Halted() bool { return m.halted }

// InputRemaining returns the number of unread input-tape values.
func (m *Machine) InputRemaining() int { return len(m.input) - m.inPos }

// Step executes one instruction on the predecoded fast path and returns its
// trace entry. After the machine halts, Step returns ErrHalted. It is
// observationally identical to StepRef (enforced by the differential suite).
func (m *Machine) Step() (Trace, error) {
	var tr [1]Trace
	if _, err := m.StepBatch(tr[:], 1); err != nil {
		return Trace{}, err
	}
	return tr[0], nil
}

// setRd writes v to the destination register unless it is the hardwired
// zero register.
func (m *Machine) setRd(rd uint8, v int64) {
	if rd != isa.RegZero {
		m.Regs[rd] = v
	}
}

// StepRef is the reference interpreter: a direct transcription of the ISA
// semantics as one switch over isa.Inst, kept as the oracle the predecoded
// fast path is differentially tested against (and as readable documentation
// of the instruction set's behaviour).
func (m *Machine) StepRef() (Trace, error) {
	if m.halted {
		return Trace{}, ErrHalted
	}
	if m.PC < 0 || m.PC >= len(m.prog.Code) {
		return Trace{}, fmt.Errorf("emu: pc %d out of range", m.PC)
	}
	pc := m.PC
	in := m.prog.Code[pc]
	tr := Trace{PC: pc, Inst: in}
	next := pc + 1

	// The second ALU operand, resolved once for the opcodes that use it.
	var src2 int64
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpCmpEQ, isa.OpCmpNE, isa.OpCmpLT, isa.OpCmpLE,
		isa.OpCmpGT, isa.OpCmpGE:
		if in.UseImm {
			src2 = in.Imm
		} else {
			src2 = m.Regs[in.Rs2]
		}
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.setRd(in.Rd, m.Regs[in.Rs1]+src2)
	case isa.OpSub:
		m.setRd(in.Rd, m.Regs[in.Rs1]-src2)
	case isa.OpMul:
		m.setRd(in.Rd, m.Regs[in.Rs1]*src2)
	case isa.OpDiv:
		d := src2
		if d == 0 {
			m.setRd(in.Rd, 0)
		} else {
			m.setRd(in.Rd, m.Regs[in.Rs1]/d)
		}
	case isa.OpRem:
		d := src2
		if d == 0 {
			m.setRd(in.Rd, 0)
		} else {
			m.setRd(in.Rd, m.Regs[in.Rs1]%d)
		}
	case isa.OpAnd:
		m.setRd(in.Rd, m.Regs[in.Rs1]&src2)
	case isa.OpOr:
		m.setRd(in.Rd, m.Regs[in.Rs1]|src2)
	case isa.OpXor:
		m.setRd(in.Rd, m.Regs[in.Rs1]^src2)
	case isa.OpShl:
		m.setRd(in.Rd, m.Regs[in.Rs1]<<(uint64(src2)&63))
	case isa.OpShr:
		m.setRd(in.Rd, m.Regs[in.Rs1]>>(uint64(src2)&63))
	case isa.OpCmpEQ:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] == src2))
	case isa.OpCmpNE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] != src2))
	case isa.OpCmpLT:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] < src2))
	case isa.OpCmpLE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] <= src2))
	case isa.OpCmpGT:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] > src2))
	case isa.OpCmpGE:
		m.setRd(in.Rd, b2i(m.Regs[in.Rs1] >= src2))
	case isa.OpMovI:
		m.setRd(in.Rd, in.Imm)
	case isa.OpMov:
		m.setRd(in.Rd, m.Regs[in.Rs1])
	case isa.OpLd:
		addr := m.Regs[in.Rs1] + in.Imm
		if addr < 0 || addr >= int64(len(m.Mem)) {
			return Trace{}, fmt.Errorf("emu: pc %d: load address %d out of range", pc, addr)
		}
		tr.Addr = addr
		m.setRd(in.Rd, m.Mem[addr])
	case isa.OpSt:
		addr := m.Regs[in.Rs1] + in.Imm
		if addr < 0 || addr >= int64(len(m.Mem)) {
			return Trace{}, fmt.Errorf("emu: pc %d: store address %d out of range", pc, addr)
		}
		tr.Addr = addr
		m.Mem[addr] = m.Regs[in.Rs2]
	case isa.OpBeqz:
		if m.Regs[in.Rs1] == 0 {
			tr.Taken = true
			next = in.Target
		}
	case isa.OpBnez:
		if m.Regs[in.Rs1] != 0 {
			tr.Taken = true
			next = in.Target
		}
	case isa.OpJmp:
		next = in.Target
	case isa.OpCall:
		m.Regs[isa.RegLR] = int64(pc + 1)
		next = in.Target
	case isa.OpCallR:
		m.Regs[isa.RegLR] = int64(pc + 1)
		next = int(m.Regs[in.Rs1])
	case isa.OpRet:
		next = int(m.Regs[isa.RegLR])
	case isa.OpJr:
		next = int(m.Regs[in.Rs1])
	case isa.OpIn:
		if m.inPos < len(m.input) {
			m.setRd(in.Rd, m.input[m.inPos])
			m.inPos++
		} else {
			m.setRd(in.Rd, 0)
		}
	case isa.OpInAvail:
		m.setRd(in.Rd, int64(len(m.input)-m.inPos))
	case isa.OpOut:
		m.Output = append(m.Output, m.Regs[in.Rs1])
	case isa.OpHalt:
		m.halted = true
		next = pc
	default:
		return Trace{}, fmt.Errorf("emu: pc %d: unimplemented opcode %s", pc, in.Op)
	}

	if !m.halted && (next < 0 || next >= len(m.prog.Code)) {
		return Trace{}, fmt.Errorf("emu: pc %d: control transfer to %d out of range", pc, next)
	}
	m.PC = next
	tr.NextPC = next
	m.Retired++
	return tr, nil
}

// Run executes until halt or until maxInsts instructions have retired
// (maxInsts <= 0 means no limit). It returns the number of instructions
// retired by this call. Execution runs on the block-batched executor.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	if m.halted {
		return 0, nil
	}
	n, err := m.RunWarm(maxInsts, nil)
	if err == nil && !m.halted {
		err = fmt.Errorf("emu: instruction limit %d exceeded", maxInsts)
	}
	return n, err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
