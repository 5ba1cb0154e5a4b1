package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dmp/internal/bench"
	"dmp/internal/emu"
)

// TestRunCtxPreCancelled: an already-cancelled context aborts the run near
// its start and surfaces context.Canceled.
func TestRunCtxPreCancelled(t *testing.T) {
	prog, _, _ := hammockProg(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, prog, randBits(1, 4096), DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidRun: cancelling while the simulation is in flight makes
// it return promptly (cancellation is checked at trace-batch refills and
// every few thousand cycles, so a long run cannot outlive its context for
// more than a bounded slice of work).
func TestRunCtxCancelMidRun(t *testing.T) {
	prog, _, _ := hammockProg(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Large tape: several hundred thousand cycles uncancelled.
		_, err := RunCtx(ctx, prog, randBits(2, 200_000), DefaultConfig())
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx did not return after cancel")
	}
}

// TestRunCtxNilSafe: Run (no context) still works and RunCtx with a live
// background context matches it.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	prog, _, _ := hammockProg(t, 4)
	in := randBits(3, 512)
	st1, err := Run(prog, in, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st2, err := RunCtx(context.Background(), prog, in, DefaultConfig())
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if st1.Cycles != st2.Cycles || st1.Retired != st2.Retired {
		t.Fatalf("RunCtx stats diverge from Run:\n%+v\n%+v", st1, st2)
	}
}

// errCounter is a live cancellable context that counts its Err calls.
type errCounter struct {
	context.Context
	calls uint64
}

func (c *errCounter) Err() error {
	c.calls++
	return c.Context.Err()
}

// TestSkipPollsOncePerChunk: a fast-forward polls its context once per
// skipChunk instructions, not once per straight-line run, so a long skip
// pays a bounded number of Err calls (each takes a mutex on a cancellable
// context).
func TestSkipPollsOncePerChunk(t *testing.T) {
	b := bench.ByName("compress")
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	skips := []struct {
		name string
		skip func(s *Sim, ctx context.Context, n uint64) (uint64, error)
	}{
		{"plain", func(s *Sim, ctx context.Context, n uint64) (uint64, error) { return s.SkipPlain(ctx, n) }},
		{"warm", func(s *Sim, ctx context.Context, n uint64) (uint64, error) { return s.Skip(ctx, n, n/4) }},
	}
	for _, scale := range []int{1, 16} {
		input := b.Input(bench.RunInput, scale)
		for _, n := range []uint64{1_000_000, 3*skipChunk + 5} {
			for _, sk := range skips {
				tag := fmt.Sprintf("%s/scale=%d/n=%d", sk.name, scale, n)
				base, cancel := context.WithCancel(context.Background())
				ctx := &errCounter{Context: base}
				got, err := sk.skip(New(prog, input, DefaultConfig()), ctx, n)
				cancel()
				if err != nil {
					t.Fatalf("%s: skip: %v", tag, err)
				}
				want, _ := emu.New(prog, input, 0).Run(n)
				if got != want {
					t.Fatalf("%s: skipped %d, want %d", tag, got, want)
				}
				// The warm skip splits n into a warming stretch and a
				// predictor-training tail, each chunked on its own.
				bound := (n+skipChunk-1)/skipChunk + 1
				if sk.name == "warm" {
					bound++
				}
				if ctx.calls > bound {
					t.Fatalf("%s: %d ctx.Err calls, want at most %d", tag, ctx.calls, bound)
				}
			}
		}
	}
}
