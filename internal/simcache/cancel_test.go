package simcache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dmp/internal/pipeline"
)

// TestRunCtxCancelledNotMemoized: a cancelled run must not poison the cache.
// A later identical request with a live context reruns the simulation and
// succeeds.
func TestRunCtxCancelledNotMemoized(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(50_000)
	cfg := pipeline.DefaultConfig()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, p, in, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(cancelled) err = %v, want context.Canceled", err)
	}
	m := c.Metrics()
	if m.Cancels != 1 {
		t.Fatalf("Cancels = %d, want 1", m.Cancels)
	}
	if m.Misses != 0 {
		t.Fatalf("Misses = %d after cancelled run, want 0 (must not memoize)", m.Misses)
	}

	st, err := c.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if st.Retired == 0 {
		t.Fatal("retry after cancel produced an empty result")
	}
	m = c.Metrics()
	if m.Misses != 1 {
		t.Fatalf("Misses = %d after retry, want 1", m.Misses)
	}
}

// TestRunCtxWaiterSurvivesRunnerCancel: when the in-flight runner is
// cancelled, deduplicated waiters with live contexts retry the simulation
// themselves instead of inheriting the runner's cancellation error.
func TestRunCtxWaiterSurvivesRunnerCancel(t *testing.T) {
	for _, ns := range namespaces {
		t.Run(ns.name, func(t *testing.T) {
			c := New("")
			p := testProg(t)
			in := testInput(ns.slowN)

			runnerCtx, cancelRunner := context.WithCancel(context.Background())
			runnerDone := make(chan error, 1)
			go func() {
				_, err := ns.run(c, runnerCtx, p, in)
				runnerDone <- err
			}()

			// Wait until the runner's entry is in flight so the waiter dedups onto it.
			for i := 0; ; i++ {
				if ns.inflight(c) == 1 {
					break
				}
				if i > 1000 {
					t.Fatal("runner never registered its in-flight entry")
				}
				time.Sleep(time.Millisecond)
			}

			var wg sync.WaitGroup
			waiterErrs := make([]error, 3)
			for i := range waiterErrs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, waiterErrs[i] = ns.run(c, context.Background(), p, in)
				}(i)
			}
			time.Sleep(2 * time.Millisecond)
			cancelRunner()

			if err := <-runnerDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("runner err = %v, want context.Canceled", err)
			}
			wg.Wait()
			for i, err := range waiterErrs {
				if err != nil {
					t.Errorf("waiter %d err = %v, want success after retry", i, err)
				}
			}
			if m := c.Metrics(); m.Cancels == 0 {
				t.Errorf("Cancels = 0, want >= 1")
			}
		})
	}
}

// TestRunCtxWaiterCancelled: a waiter whose own context ends while waiting
// gets its context error back promptly.
func TestRunCtxWaiterCancelled(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(300_000)
	cfg := pipeline.DefaultConfig()

	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		if _, err := c.Run(context.Background(), p, in, cfg); err != nil {
			t.Errorf("runner: %v", err)
		}
	}()
	for i := 0; ; i++ {
		if inflight(c.full) == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("runner never registered its in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, p, in, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("waiter blocked %v after its context ended", waited)
	}
	<-runnerDone
}
