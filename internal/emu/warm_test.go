package emu_test

import (
	"errors"
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/predecode"
)

// warmEvents collects RunWarm hook events into per-kind streams; each stream
// must independently match the classification of a step-batched reference
// trace (per-kind streams sidestep the deliberate Block-vs-Load interleaving
// difference: RunWarm reports a straight-line extent after its loads).
type warmEvents struct {
	pcs      []int // flattened Block extents, in retirement order
	loads    []int64
	branches [][3]int // pc, taken (0/1), taken-target
	calls    [][2]int // pc, target
	rets     []int
	jumps    [][2]int // pc, target
}

func (ev *warmEvents) hooks() *emu.WarmHooks {
	return &emu.WarmHooks{
		Block: func(start, end int) {
			for pc := start; pc <= end; pc++ {
				ev.pcs = append(ev.pcs, pc)
			}
		},
		Load: func(addr int64) { ev.loads = append(ev.loads, addr) },
		Branch: func(pc int, taken bool, target int) {
			tk := 0
			if taken {
				tk = 1
			}
			ev.branches = append(ev.branches, [3]int{pc, tk, target})
		},
		Call: func(pc, next int) { ev.calls = append(ev.calls, [2]int{pc, next}) },
		Ret:  func(pc int) { ev.rets = append(ev.rets, pc) },
		Jump: func(pc, next int) { ev.jumps = append(ev.jumps, [2]int{pc, next}) },
	}
}

// classify folds one reference trace entry into the expected event streams,
// applying the same event model RunWarm implements: every retired pc, loads
// by latency class, control flow by predecode kind (halts retire but carry
// no control-flow event).
func (ev *warmEvents) classify(recs []predecode.Rec, e *emu.Trace) {
	ev.pcs = append(ev.pcs, e.PC)
	rec := &recs[e.PC]
	switch {
	case rec.IsCondBranch():
		tk := 0
		if e.Taken {
			tk = 1
		}
		ev.branches = append(ev.branches, [3]int{e.PC, tk, int(rec.Target)})
	case rec.Kind == predecode.KCall || rec.Kind == predecode.KCallR:
		ev.calls = append(ev.calls, [2]int{e.PC, e.NextPC})
	case rec.Kind == predecode.KRet:
		ev.rets = append(ev.rets, e.PC)
	case rec.Kind == predecode.KJmp || rec.Kind == predecode.KJr:
		ev.jumps = append(ev.jumps, [2]int{e.PC, e.NextPC})
	case rec.Kind == predecode.KHalt:
	case rec.Lat == predecode.LatLoad:
		ev.loads = append(ev.loads, e.Addr)
	}
}

func runBlocks(m *emu.Machine, max uint64) (uint64, error) {
	var done uint64
	for (max == 0 || done < max) && !m.Halted() {
		var rem uint64
		if max > 0 {
			rem = max - done
		}
		br, err := m.RunBlock(rem)
		done += br.N
		if err != nil {
			return done, err
		}
		if max == 0 && br.N == 0 && !m.Halted() {
			return done, fmt.Errorf("no progress")
		}
	}
	return done, nil
}

// TestRunWarmMatchesRunBlock pins the warm executor's architectural
// semantics to RunBlock's over corpus programs: same retired counts, same
// faults, same final machine state, at budgets that cut straight-line runs
// mid-way and at full run-to-halt length.
func TestRunWarmMatchesRunBlock(t *testing.T) {
	for _, name := range []string{"compress", "mcf", "gcc", "li"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		input := b.Input(bench.RunInput, 1)
		for _, lim := range []uint64{1, 7, 997, 123_457, 0} {
			tag := fmt.Sprintf("%s/lim=%d", name, lim)
			warm := emu.New(prog, input, 0)
			blk := emu.New(prog, input, 0)
			var ev warmEvents
			wn, werr := warm.RunWarm(lim, ev.hooks())
			bn, berr := runBlocks(blk, lim)
			if wn != bn || !errsEqual(werr, berr) {
				t.Fatalf("%s: warm (%d, %v) vs block (%d, %v)", tag, wn, werr, bn, berr)
			}
			diffState(t, tag, warm, blk)
			// The RunWarm(lim, nil) row: the plain multi-run fast-forward
			// behind Run, traceReader.skip and sample.advance.
			plain := emu.New(prog, input, 0)
			if pn, perr := plain.RunWarm(lim, nil); pn != bn || !errsEqual(perr, berr) {
				t.Fatalf("%s: nil-hooks warm (%d, %v) vs block (%d, %v)", tag, pn, perr, bn, berr)
			}
			diffState(t, tag+"/nil-hooks", plain, blk)
			if uint64(len(ev.pcs)) != wn {
				t.Fatalf("%s: Block extents cover %d pcs, %d retired", tag, len(ev.pcs), wn)
			}
			if warm.Halted() {
				if _, err := warm.RunWarm(1, ev.hooks()); !errors.Is(err, emu.ErrHalted) {
					t.Fatalf("%s: RunWarm after halt: %v, want ErrHalted", tag, err)
				}
			}
		}
	}
}

// TestRunWarmEventsMatchReference checks the hook event streams against a
// step-batched reference trace classified by the same event model, entry for
// entry: extents flatten to the exact retired-pc sequence, and load /
// branch / call / ret / jump streams match in order and payload.
func TestRunWarmEventsMatchReference(t *testing.T) {
	const lim = 200_000
	for _, name := range []string{"compress", "mcf", "vortex"} {
		b := bench.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		input := b.Input(bench.RunInput, 1)

		warm := emu.New(prog, input, 0)
		var got warmEvents
		if _, err := warm.RunWarm(lim, got.hooks()); err != nil {
			t.Fatalf("%s: RunWarm: %v", name, err)
		}

		ref := emu.New(prog, input, 0)
		recs := ref.Predecoded().Recs
		var want warmEvents
		buf := make([]emu.Trace, 1024)
		for n := 0; n < lim; {
			space := min(len(buf), lim-n)
			k, err := ref.StepBatch(buf[:space], 0)
			for i := 0; i < k; i++ {
				want.classify(recs, &buf[i])
			}
			n += k
			if err != nil {
				if errors.Is(err, emu.ErrHalted) {
					break
				}
				t.Fatalf("%s: StepBatch: %v", name, err)
			}
		}

		checkInts(t, name+"/pcs", got.pcs, want.pcs)
		checkInts(t, name+"/loads", got.loads, want.loads)
		checkInts(t, name+"/branches", got.branches, want.branches)
		checkInts(t, name+"/calls", got.calls, want.calls)
		checkInts(t, name+"/rets", got.rets, want.rets)
		checkInts(t, name+"/jumps", got.jumps, want.jumps)
	}
}

func checkInts[T comparable](t *testing.T, tag string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d: got %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// TestRunWarmFaultMatchesRunBlock checks the fault paths: out-of-range loads
// and stores inside a straight-line run, a wild indirect jump and an
// undecodable instruction ending one, and a run falling off the end of the
// code segment. Faulting instructions apply no warming events and the PC
// parks on them, exactly like RunBlock.
func TestRunWarmFaultMatchesRunBlock(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *isa.Builder)
		// code, when set, is used as-is instead of build: the builder's
		// validator rejects undecodable opcodes.
		code []isa.Inst
	}{
		{"load", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, 1<<40)
			b.MovI(2, 7)
			b.Ld(3, 1, 5)
			b.Halt()
		}, nil},
		{"store", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, -3)
			b.St(1, 0, 1)
			b.Halt()
		}, nil},
		{"wild-jr", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, 1_000_000)
			b.Emit(isa.Inst{Op: isa.OpJr, Rs1: 1})
			b.Halt()
		}, nil},
		// The last instruction is an in-range load with no halt after it:
		// it executes, then faults on the fall-through, never retiring.
		{"fall-off-load", func(b *isa.Builder) {
			b.Func("main")
			b.MovI(1, 5)
			b.MovI(2, 9)
			b.Ld(3, 1, 2)
		}, nil},
		{"bad-opcode", nil, []isa.Inst{
			{Op: isa.OpMovI, Rd: 1, Imm: 3},
			{Op: isa.OpMovI, Rd: 2, Imm: 4},
			{Op: isa.Op(250)},
			{Op: isa.OpHalt},
		}},
	}
	for _, tc := range cases {
		prog := &isa.Program{Code: tc.code}
		if tc.build != nil {
			bld := isa.NewBuilder()
			tc.build(bld)
			var err error
			if prog, err = bld.Link(); err != nil {
				t.Fatalf("%s: link: %v", tc.name, err)
			}
		}
		warm := emu.New(prog, nil, 0)
		blk := emu.New(prog, nil, 0)
		var ev warmEvents
		wn, werr := warm.RunWarm(0, ev.hooks())
		bn, berr := runBlocks(blk, 0)
		if werr == nil {
			t.Fatalf("%s: RunWarm did not fault", tc.name)
		}
		if wn != bn || !errsEqual(werr, berr) {
			t.Fatalf("%s: warm (%d, %v) vs block (%d, %v)", tc.name, wn, werr, bn, berr)
		}
		diffState(t, tc.name, warm, blk)
		if uint64(len(ev.pcs)) != wn {
			t.Fatalf("%s: Block extents cover %d pcs, %d retired", tc.name, len(ev.pcs), wn)
		}
		if len(ev.loads) != 0 {
			t.Fatalf("%s: faulting instruction produced %d load events", tc.name, len(ev.loads))
		}
	}
}
