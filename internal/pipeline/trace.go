package pipeline

import (
	"context"
	"errors"

	"dmp/internal/emu"
)

// traceBatchSize is how many correct-path entries the reader requests from
// the emulator per refill. Batching amortises the per-call overhead of the
// emulator across a few hundred instructions; the buffer is allocated once
// per Sim, so the steady-state loop stays allocation-free.
const traceBatchSize = 256

// skipChunk is how many instructions skip runs between cancellation polls.
const skipChunk = 1 << 22

// traceReader supplies the correct execution path from the functional
// emulator in batches, exposing the same one-entry-lookahead interface the
// fetch stage needs (Peek to learn the resume PC after a flush before
// consuming the entry). Running the emulator up to a batch ahead of the
// pipeline is safe: the pipeline only reads trace entries, never the
// machine's registers or memory, until the run completes.
type traceReader struct {
	m   *emu.Machine
	buf []emu.Trace
	pos int // next unconsumed index in buf[:n]
	n   int
	// done is set at halt or when maxInsts entries have been produced;
	// halted distinguishes the two so extendBudget can reopen a reader that
	// only ran out of budget.
	done   bool
	halted bool
	// pending holds a fault discovered mid-batch; it surfaces as err only
	// after the entries before it have been consumed, exactly when a
	// step-by-step reader would have hit it.
	pending  error
	err      error
	count    uint64
	fetched  uint64
	maxInsts uint64
	// ctx, when non-nil, cancels the run at batch-refill boundaries; the
	// resulting err wraps the context error (set via Sim.Run).
	ctx context.Context
}

func newTraceReader(m *emu.Machine, maxInsts uint64) *traceReader {
	return &traceReader{m: m, buf: make([]emu.Trace, traceBatchSize), maxInsts: maxInsts}
}

func (t *traceReader) fill() {
	if t.pos < t.n || t.done || t.err != nil {
		return
	}
	if t.pending != nil {
		t.err = t.pending
		return
	}
	// Block-batch boundary: the natural cancellation point — each refill
	// represents up to traceBatchSize instructions of functional execution.
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			t.err = err
			return
		}
	}
	lim := uint64(len(t.buf))
	if t.maxInsts > 0 {
		rem := t.maxInsts - t.fetched
		if rem == 0 {
			t.done = true
			return
		}
		if rem < lim {
			lim = rem
		}
	}
	k, err := t.m.StepBatch(t.buf[:lim], 0)
	t.pos, t.n = 0, k
	t.fetched += uint64(k)
	if err != nil {
		switch {
		case errors.Is(err, emu.ErrHalted):
			t.done = true
			t.halted = true
		case k == 0:
			t.err = err
		default:
			t.pending = err
		}
	}
}

// extendBudget allows n more entries to be produced, reopening a reader that
// exhausted its instruction budget. A reader that saw the machine halt (or
// fault) stays done: there is no more trace to extend into.
func (t *traceReader) extendBudget(n uint64) {
	t.maxInsts = t.fetched + n
	if !t.halted && t.err == nil && t.pending == nil {
		t.done = false
	}
}

// skip functionally advances the machine past n correct-path instructions
// without materialising trace entries for them: whatever is already buffered
// is consumed first, the remainder runs on the emulator's block-batched
// executor (emu.RunWarm) with no per-instruction trace construction. It
// returns the number actually skipped, which falls short of n only when the
// machine halts or faults.
//
// With warm and hooks non-nil this is functional warming: buffered lookahead
// entries are handed to warm one by one before being dropped, and the
// executor reports branch outcomes, load addresses and straight-line extents
// through hooks. The sampling layer uses it to keep the cache, BTB and
// history state a detailed interval inherits tracking what a full-fidelity
// run would have built (the SMARTS warming scheme), at a cost close to the
// plain block-batched path rather than the step-batched one.
func (t *traceReader) skip(n uint64, warm func(*emu.Trace), hooks *emu.WarmHooks) (uint64, error) {
	skipped := min(uint64(t.n-t.pos), n)
	if warm != nil {
		for i := t.pos; i < t.pos+int(skipped); i++ {
			warm(&t.buf[i])
		}
	}
	t.pos += int(skipped)
	t.count += skipped
	if skipped == n {
		return skipped, nil
	}
	if t.err != nil {
		return skipped, t.err
	}
	if t.pending != nil {
		// The buffered entries before the fault are gone; the fault is next.
		t.err = t.pending
		return skipped, t.err
	}
	// Chunked so cancellation has one poll point per skipChunk instructions
	// even inside one long fast-forward.
	for skipped < n && !t.m.Halted() {
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				t.err = err
				return skipped, err
			}
		}
		k, err := t.m.RunWarm(min(n-skipped, skipChunk), hooks)
		skipped += k
		t.count += k
		t.fetched += k
		if err != nil {
			if errors.Is(err, emu.ErrHalted) {
				break
			}
			t.err = err
			return skipped, err
		}
	}
	if t.m.Halted() {
		t.done = true
		t.halted = true
	}
	return skipped, nil
}

// Peek returns the next correct-path entry without consuming it. The
// pointer is valid until the next call that consumes an entry past the
// current batch.
func (t *traceReader) Peek() (*emu.Trace, bool) {
	t.fill()
	if t.pos >= t.n {
		return nil, false
	}
	return &t.buf[t.pos], true
}

// Next consumes and returns the next correct-path entry.
func (t *traceReader) Next() (*emu.Trace, bool) {
	t.fill()
	if t.pos >= t.n {
		return nil, false
	}
	tr := &t.buf[t.pos]
	t.pos++
	t.count++
	return tr, true
}

// Done reports whether the trace is exhausted.
func (t *traceReader) Done() bool {
	t.fill()
	return t.pos >= t.n && (t.done || t.err != nil)
}

// Err returns a functional-execution error, if any.
func (t *traceReader) Err() error { return t.err }

// Count returns the number of consumed entries.
func (t *traceReader) Count() uint64 { return t.count }
