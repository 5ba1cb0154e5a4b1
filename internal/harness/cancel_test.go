package harness

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmp/internal/gen"
	"dmp/internal/simcache"
	"dmp/internal/workpool"
)

// TestRunPopulationCtxCancel: cancelling a population run mid-flight returns
// promptly with the context error, leaks no goroutines, and leaves the disk
// cache free of torn or temporary entries (only whole, parseable results may
// land, thanks to temp+rename writes and the no-memoize-on-cancel rule).
func TestRunPopulationCtxCancel(t *testing.T) {
	dir := t.TempDir()
	cache := simcache.New(dir)
	progs := gen.BuildCorpus(gen.Presets(), 6, 11)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunPopulation(ctx, progs, PopulationOptions{Parallelism: 4, Cache: cache})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunPopulation err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunPopulation did not return after cancel")
	}

	// Helper goroutines must wind down (pool helpers exit at task
	// boundaries; allow the runtime a moment to reap them).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 || time.Now().After(deadline) {
			if g > before+1 {
				t.Errorf("goroutines: %d before, %d after cancel (leak?)", before, g)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No torn disk entries: nothing temporary left behind, and every
	// persisted result is complete valid JSON.
	entries := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("stale temp file in cache dir: %s", path)
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".json") {
			t.Errorf("unexpected file in cache dir: %s", path)
			return nil
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if !json.Valid(b) {
			t.Errorf("torn cache entry (invalid JSON): %s", path)
		}
		entries++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cache dir holds %d whole entries after cancel", entries)
}

// TestRunPopulationCtxCompletesAfterCancelledRun: the same corpus and cache
// still evaluate cleanly after a cancelled attempt — no cancellation residue
// in the memoization layer.
func TestRunPopulationCtxCompletesAfterCancelledRun(t *testing.T) {
	cache := simcache.New("")
	progs := gen.BuildCorpus(gen.Presets(), 2, 23)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPopulation(ctx, progs, PopulationOptions{Parallelism: 2, Cache: cache}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run err = %v, want context.Canceled", err)
	}

	rep, err := RunPopulation(context.Background(), progs, PopulationOptions{Parallelism: 2, Cache: cache})
	if err != nil {
		t.Fatalf("clean run after cancelled run: %v", err)
	}
	if rep.Count != len(progs) {
		t.Fatalf("report covers %d programs, want %d", rep.Count, len(progs))
	}
	for _, r := range rep.Results {
		if r.Name == "" || r.BaseIPC <= 0 {
			t.Errorf("incomplete result after cancel residue: %+v", r)
		}
	}
}

// TestForEachBoundedAggregatesAllErrors pins the pool's documented
// contract: every failing workload's error reaches the caller, not just the
// first (the pre-fix behaviour).
func TestForEachBoundedAggregatesAllErrors(t *testing.T) {
	e1, e2 := errors.New("w1 failed"), errors.New("w3 failed")
	err := workpool.RunIndexed(context.Background(), 4, 2,
		func(i int) string { return "workload" }, nil,
		func(i int) error {
			switch i {
			case 1:
				return e1
			case 3:
				return e2
			}
			return nil
		})
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("RunIndexed dropped an error: got %v, want both %v and %v", err, e1, e2)
	}
}

// TestRunOneCompareCancelled: cancellation reaches inside one program of a
// compare run — its profiles and simulations run under the caller's
// context, so an already-cancelled step returns the context error without
// executing (and memoizing) any simulation.
func TestRunOneCompareCancelled(t *testing.T) {
	cache := simcache.New("")
	progs := gen.BuildCorpus(gen.Presets(), 1, 29)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runOneCompare(ctx, progs[0], PopulationOptions{Cache: cache}.withDefaults())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runOneCompare(cancelled) err = %v, want context.Canceled", err)
	}
	if m := cache.Metrics(); m.Misses != 0 {
		t.Errorf("cancelled compare step executed %d simulations, want 0", m.Misses)
	}
}
