package emu_test

import (
	"errors"
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/lang"
)

// diffStep runs the predecoded fast path and the reference interpreter in
// lockstep, insisting on identical traces, identical faults, and identical
// architectural state. maxSteps == 0 means run to halt/fault.
func diffStep(t *testing.T, tag string, prog *isa.Program, input []int64, maxSteps uint64) {
	t.Helper()
	fast := emu.New(prog, input, 0)
	ref := emu.New(prog, input, 0)
	var steps uint64
	for maxSteps == 0 || steps < maxSteps {
		ft, ferr := fast.Step()
		rt, rerr := ref.StepRef()
		if !errsEqual(ferr, rerr) {
			t.Fatalf("%s: step %d: fast err %v, ref err %v", tag, steps, ferr, rerr)
		}
		if ferr != nil {
			break
		}
		if ft != rt {
			t.Fatalf("%s: step %d: fast trace %+v, ref trace %+v", tag, steps, ft, rt)
		}
		steps++
	}
	diffState(t, tag, fast, ref)
}

func diffState(t *testing.T, tag string, fast, ref *emu.Machine) {
	t.Helper()
	if fast.PC != ref.PC || fast.Retired != ref.Retired || fast.Halted() != ref.Halted() {
		t.Fatalf("%s: state diverged: fast pc=%d retired=%d halted=%v, ref pc=%d retired=%d halted=%v",
			tag, fast.PC, fast.Retired, fast.Halted(), ref.PC, ref.Retired, ref.Halted())
	}
	if fast.Regs != ref.Regs {
		t.Fatalf("%s: register files diverged", tag)
	}
	if fast.InputRemaining() != ref.InputRemaining() {
		t.Fatalf("%s: input cursor diverged: fast %d, ref %d", tag, fast.InputRemaining(), ref.InputRemaining())
	}
	if len(fast.Output) != len(ref.Output) {
		t.Fatalf("%s: output length diverged: fast %d, ref %d", tag, len(fast.Output), len(ref.Output))
	}
	for i := range fast.Output {
		if fast.Output[i] != ref.Output[i] {
			t.Fatalf("%s: output[%d] diverged: fast %d, ref %d", tag, i, fast.Output[i], ref.Output[i])
		}
	}
	if h1, h2 := memHash(fast.Mem), memHash(ref.Mem); h1 != h2 {
		t.Fatalf("%s: memory diverged: fast hash %#x, ref hash %#x", tag, h1, h2)
	}
}

func memHash(mem []int64) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, w := range mem {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

func errsEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestFastMatchesReferenceCorpus checks the fast path against the reference
// interpreter trace-for-trace over the full benchmark corpus on both input
// sets.
func TestFastMatchesReferenceCorpus(t *testing.T) {
	maxSteps := uint64(400_000)
	if testing.Short() {
		maxSteps = 50_000
	}
	for _, b := range bench.All() {
		for _, set := range []bench.InputSet{bench.RunInput, bench.TrainInput} {
			b, set := b, set
			t.Run(fmt.Sprintf("%s/%s", b.Name, set), func(t *testing.T) {
				t.Parallel()
				prog, err := b.Compile()
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				diffStep(t, b.Name, prog, b.Input(set, 1), maxSteps)
			})
		}
	}
}

// TestRunMatchesReference checks the block-batched Run loop against a
// step-by-step reference run for several instruction limits, including
// limits that cut a basic block mid-way and the limit-exceeded fault.
func TestRunMatchesReference(t *testing.T) {
	b := bench.ByName("compress")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.RunInput, 1)
	for _, limit := range []uint64{1, 2, 3, 7, 100, 12_345, 100_000_000} {
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		n, ferr := fast.Run(limit)
		var rn uint64
		var rerr error
		for rn < limit {
			if _, err := ref.StepRef(); err != nil {
				if !errors.Is(err, emu.ErrHalted) {
					rerr = err
				}
				break
			}
			rn++
		}
		if rn == limit && !ref.Halted() {
			rerr = fmt.Errorf("emu: instruction limit %d exceeded", limit)
		}
		if !errsEqual(ferr, rerr) {
			t.Fatalf("limit %d: fast err %v, ref err %v", limit, ferr, rerr)
		}
		if n != rn {
			t.Fatalf("limit %d: fast retired %d, ref retired %d", limit, n, rn)
		}
		diffState(t, fmt.Sprintf("limit %d", limit), fast, ref)
	}
}

// TestRunBlockMatchesReference drives RunBlock with adversarial budgets and
// checks every block's branch report against the reference interpreter.
func TestRunBlockMatchesReference(t *testing.T) {
	b := bench.ByName("twolf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.TrainInput, 1)
	for _, budget := range []uint64{1, 2, 5, 64, 0} {
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		var total uint64
		for total < 300_000 {
			br, err := fast.RunBlock(budget)
			// Replay the same number of instructions on the reference and
			// check the block's branch summary against the last trace entry.
			var last emu.Trace
			var rerr error
			for i := uint64(0); i < br.N; i++ {
				last, rerr = ref.StepRef()
				if rerr != nil {
					t.Fatalf("budget %d: reference faulted inside a retired block: %v", budget, rerr)
				}
			}
			if br.N > 0 && br.Branch >= 0 {
				if last.PC != br.Branch || last.Taken != br.Taken {
					t.Fatalf("budget %d: block branch (pc=%d taken=%v), ref last trace %+v",
						budget, br.Branch, br.Taken, last)
				}
				if !last.Inst.IsCondBranch() {
					t.Fatalf("budget %d: block reported branch at pc %d but ref retired %v",
						budget, br.Branch, last.Inst.Op)
				}
			}
			total += br.N
			if err != nil {
				if !errors.Is(err, emu.ErrHalted) {
					t.Fatalf("budget %d: run block: %v", budget, err)
				}
				if _, rerr := ref.StepRef(); !errors.Is(rerr, emu.ErrHalted) {
					// Drain the reference's halt instruction if RunBlock
					// retired it inside the final block.
					if rerr != nil {
						t.Fatalf("budget %d: ref at halt: %v", budget, rerr)
					}
					for !ref.Halted() {
						if _, rerr := ref.StepRef(); rerr != nil && !errors.Is(rerr, emu.ErrHalted) {
							t.Fatalf("budget %d: ref draining to halt: %v", budget, rerr)
						}
					}
				}
				break
			}
		}
		diffState(t, fmt.Sprintf("budget %d", budget), fast, ref)
	}
}

// TestStepBatchMatchesReference checks StepBatch against StepRef for batch
// sizes that straddle block boundaries, including fault surfacing order.
func TestStepBatchMatchesReference(t *testing.T) {
	b := bench.ByName("gcc")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := b.Input(bench.RunInput, 1)
	for _, size := range []int{1, 3, 5, 64, 256} {
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		buf := make([]emu.Trace, size)
		var total uint64
		for total < 200_000 {
			k, err := fast.StepBatch(buf, 0)
			for i := 0; i < k; i++ {
				rt, rerr := ref.StepRef()
				if rerr != nil {
					t.Fatalf("size %d: reference faulted behind the batch: %v", size, rerr)
				}
				if buf[i] != rt {
					t.Fatalf("size %d: batch[%d] = %+v, ref %+v", size, i, buf[i], rt)
				}
			}
			total += uint64(k)
			if err != nil {
				rt, rerr := ref.StepRef()
				if !errsEqual(err, rerr) {
					t.Fatalf("size %d: fast err %v, ref err %v (trace %+v)", size, err, rerr, rt)
				}
				break
			}
		}
		diffState(t, fmt.Sprintf("size %d", size), fast, ref)
	}
}

// faultCases are hand-written programs exercising every fault path plus the
// effects-before-fault edge cases the reference interpreter defines.
var faultCases = []struct {
	name string
	code []isa.Inst
}{
	{"bad-opcode", []isa.Inst{{Op: isa.Op(250)}}},
	{"load-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"load-negative", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: -8},
		{Op: isa.OpLd, Rd: 2, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"store-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1 << 40},
		{Op: isa.OpSt, Rs1: 1, Rs2: 2},
		{Op: isa.OpHalt},
	}},
	{"jump-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 9999},
		{Op: isa.OpJr, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"callr-oor-writes-lr", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: -3},
		{Op: isa.OpCallR, Rs1: 1},
		{Op: isa.OpHalt},
	}},
	{"fall-off-end", []isa.Inst{
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 1},
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 2},
	}},
	{"branch-oor", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpBnez, Rs1: 1, Target: 77},
		{Op: isa.OpHalt},
	}},
	{"div-by-zero", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 10},
		{Op: isa.OpDiv, Rd: 2, Rs1: 1, Rs2: 0},
		{Op: isa.OpRem, Rd: 3, Rs1: 1, Rs2: 0},
		{Op: isa.OpOut, Rs1: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpHalt},
	}},
	{"div-minint-by-minus1", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpShl, Rd: 1, Rs1: 1, UseImm: true, Imm: 63},
		{Op: isa.OpMovI, Rd: 2, Imm: -1},
		{Op: isa.OpDiv, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpRem, Rd: 4, Rs1: 1, Rs2: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"shift-mask", []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},
		{Op: isa.OpMovI, Rd: 2, Imm: 65},
		{Op: isa.OpShl, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpShr, Rd: 4, Rs1: 3, Rs2: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"input-eof", []isa.Inst{
		{Op: isa.OpIn, Rd: 1},
		{Op: isa.OpIn, Rd: 2},
		{Op: isa.OpIn, Rd: 3},
		{Op: isa.OpInAvail, Rd: 4},
		{Op: isa.OpOut, Rs1: 1},
		{Op: isa.OpOut, Rs1: 2},
		{Op: isa.OpOut, Rs1: 3},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpHalt},
	}},
	{"input-to-r0-consumes", []isa.Inst{
		{Op: isa.OpIn, Rd: 0},
		{Op: isa.OpIn, Rd: 1},
		{Op: isa.OpOut, Rs1: 1},
		{Op: isa.OpHalt},
	}},
}

// TestFaultEquivalence checks every fault path produces the same error, the
// same parked PC, and the same partially-applied effects on both engines.
func TestFaultEquivalence(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := &isa.Program{Code: tc.code}
			diffStep(t, tc.name, prog, []int64{5, 6}, 0)
		})
	}
}

// TestStepBatchFaults checks the batched path surfaces the same faults in
// the same position as the per-step engines.
func TestStepBatchFaults(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := &isa.Program{Code: tc.code}
			fast := emu.New(prog, []int64{5, 6}, 0)
			ref := emu.New(prog, []int64{5, 6}, 0)
			buf := make([]emu.Trace, 4)
			for {
				k, err := fast.StepBatch(buf, 0)
				for i := 0; i < k; i++ {
					rt, rerr := ref.StepRef()
					if rerr != nil {
						t.Fatalf("reference faulted behind the batch: %v", rerr)
					}
					if buf[i] != rt {
						t.Fatalf("batch[%d] = %+v, ref %+v", i, buf[i], rt)
					}
				}
				if err != nil {
					_, rerr := ref.StepRef()
					if !errsEqual(err, rerr) {
						t.Fatalf("fast err %v, ref err %v", err, rerr)
					}
					break
				}
			}
			diffState(t, tc.name, fast, ref)
		})
	}
}

// FuzzEmuDiff feeds generated DML programs (seeded by the corpus generator's
// default mix plus the biased-branch and deep-hammock presets) through the
// compiler and checks every entry point of the predecoded executor against
// the reference interpreter: Step in lockstep, then a RunBlock loop, RunWarm
// with recording hooks and Run, each on a fresh machine with a budget derived
// from tapeSeed. Mutated sources that no longer parse or check are skipped;
// anything that compiles must execute identically on every path.
func FuzzEmuDiff(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(bench.GenSource(seed), int64(seed))
	}
	for _, preset := range []string{"biased-branch", "deep-hammock"} {
		conf, ok := gen.Preset(preset)
		if !ok {
			f.Fatalf("preset %s missing", preset)
		}
		for seed := uint64(0); seed < 6; seed++ {
			f.Add(gen.Build(conf, seed).Source, int64(seed))
		}
	}
	f.Fuzz(func(t *testing.T, src string, tapeSeed int64) {
		file, err := lang.Parse(src)
		if err != nil {
			t.Skip()
		}
		if err := lang.Check(file); err != nil {
			t.Skip()
		}
		prog, err := codegen.CompileSource(src)
		if err != nil {
			t.Skip()
		}
		if err := prog.Validate(); err != nil {
			t.Skip()
		}
		input := make([]int64, 64)
		for i := range input {
			input[i] = tapeSeed*2654435761 + int64(i)*37
		}
		fast := emu.New(prog, input, 0)
		ref := emu.New(prog, input, 0)
		// Cap the lockstep run so individual fuzz execs stay fast; the
		// corpus differential test covers long executions.
		for steps := 0; steps < 200_000; steps++ {
			ft, ferr := fast.Step()
			rt, rerr := ref.StepRef()
			if !errsEqual(ferr, rerr) {
				t.Fatalf("step %d: fast err %v, ref err %v", steps, ferr, rerr)
			}
			if ferr != nil {
				break
			}
			if ft != rt {
				t.Fatalf("step %d: fast trace %+v, ref trace %+v", steps, ft, rt)
			}
		}
		diffState(t, "fuzz", fast, ref)

		// Reference run of exactly budget instructions (or to halt/fault),
		// with its trace classified into the expected warming events. The
		// budget stays under the lockstep cap.
		budget := 1 + uint64(tapeSeed)*7919%200_000
		ref = emu.New(prog, input, 0)
		recs := ref.Predecoded().Recs
		var want warmEvents
		var rerr error
		for ref.Retired < budget && !ref.Halted() {
			rt, err := ref.StepRef()
			if err != nil {
				rerr = err
				break
			}
			want.classify(recs, &rt)
		}
		check := func(path string, m *emu.Machine, n uint64, err error) {
			t.Helper()
			tag := fmt.Sprintf("fuzz/%s/budget=%d", path, budget)
			if n != ref.Retired || !errsEqual(err, rerr) {
				t.Fatalf("%s: (%d, %v), ref (%d, %v)", tag, n, err, ref.Retired, rerr)
			}
			diffState(t, tag, m, ref)
		}

		blk := emu.New(prog, input, 0)
		n, err := runBlocks(blk, budget)
		check("RunBlock", blk, n, err)

		warm := emu.New(prog, input, 0)
		var got warmEvents
		n, err = warm.RunWarm(budget, got.hooks())
		check("RunWarm", warm, n, err)
		checkInts(t, "fuzz/pcs", got.pcs, want.pcs)
		checkInts(t, "fuzz/loads", got.loads, want.loads)
		checkInts(t, "fuzz/branches", got.branches, want.branches)
		checkInts(t, "fuzz/calls", got.calls, want.calls)
		checkInts(t, "fuzz/rets", got.rets, want.rets)
		checkInts(t, "fuzz/jumps", got.jumps, want.jumps)

		run := emu.New(prog, input, 0)
		n, err = run.Run(budget)
		if rerr == nil && !ref.Halted() {
			rerr = fmt.Errorf("emu: instruction limit %d exceeded", budget)
		}
		check("Run", run, n, err)
	})
}
