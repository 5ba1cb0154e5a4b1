package simcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// TestRunSampledMemoizes: the second identical sampled request is a hit and
// returns a Result deep-equal to the executed one.
func TestRunSampledMemoizes(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	r1, err := c.RunSampled(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RunSampled(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("memoized sampled result differs from executed one")
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Hits != 1 || m.Sampled != 1 {
		t.Errorf("metrics = %+v, want 1 miss / 1 hit / 1 sampled", m)
	}
}

// TestRunSampledKeySeparation: a sampled run and a full-fidelity run of the
// same workload must occupy disjoint cache entries, and different sampling
// confs must not collide with each other.
func TestRunSampledKeySeparation(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	if _, err := c.Run(context.Background(), p, in, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSampled(context.Background(), p, in, cfg, sc); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Misses != 2 || m.Hits != 0 {
		t.Fatalf("full + sampled of the same workload: %d misses %d hits, want 2/0", m.Misses, m.Hits)
	}

	k1 := c.KeyOfSampled(p, in, cfg, sc)
	sc2 := sc
	sc2.Seed = 99
	k2 := c.KeyOfSampled(p, in, cfg, sc2)
	if k1 == k2 {
		t.Error("different seeds produced the same sampled key")
	}
	if k1 == c.KeyOf(p, in, cfg) {
		t.Error("sampled key collides with the full-fidelity key")
	}

	// Implied defaults and their explicit spelling are the same entry.
	sc3 := sc
	sc3.Confidence = 0 // withDefaults resolves to 0.95
	sc4 := sc
	sc4.Confidence = 0.95
	if c.KeyOfSampled(p, in, cfg, sc3) != c.KeyOfSampled(p, in, cfg, sc4) {
		t.Error("canonicalization: implied and explicit defaults keyed differently")
	}
}

// TestRunSampledDisk: a fresh Cache over the same directory answers from the
// schema-versioned sampled namespace without re-simulating.
func TestRunSampledDisk(t *testing.T) {
	dir := t.TempDir()
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	c1 := New(dir)
	r1, err := c1.RunSampled(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "sm-"+sample.Schema())
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("sampled disk namespace %s: %v", want, err)
	}

	c2 := New(dir)
	r2, err := c2.RunSampled(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("disk round-trip changed the sampled result")
	}
	m := c2.Metrics()
	if m.DiskHits != 1 || m.Misses != 0 {
		t.Errorf("fresh cache metrics = %+v, want 1 disk hit / 0 misses", m)
	}
}

// TestRunSampledCancelledNotMemoized: the RunCtx cancellation contract holds
// on the sampled path — an aborted run is evicted and a live retry succeeds.
func TestRunSampledCancelledNotMemoized(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(120_000)
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunSampled(ctx, p, in, cfg, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSampled(cancelled) err = %v, want context.Canceled", err)
	}
	m := c.Metrics()
	if m.Cancels != 1 || m.Misses != 0 || m.Sampled != 0 {
		t.Fatalf("after cancel: %+v, want 1 cancel and nothing memoized", m)
	}

	r, err := c.RunSampled(context.Background(), p, in, cfg, sc)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if r.TotalInsts == 0 {
		t.Fatal("retry after cancel produced an empty result")
	}
	if m := c.Metrics(); m.Misses != 1 || m.Sampled != 1 {
		t.Fatalf("after retry: %+v, want 1 miss / 1 sampled", m)
	}
}

// TestRunSampledNilCache: a nil *Cache degrades to a plain sampled run.
func TestRunSampledNilCache(t *testing.T) {
	var c *Cache
	p := testProg(t)
	in := testInput(120_000)
	r, err := c.RunSampled(context.Background(), p, in, pipeline.DefaultConfig(), sample.DefaultConf())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalInsts == 0 {
		t.Fatal("nil-cache sampled run produced an empty result")
	}
}
