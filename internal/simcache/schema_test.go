package simcache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmp/internal/pipeline"
	"dmp/internal/trace"
)

// A stale-schema (legacy flat-layout) entry must never be picked up: entries
// live under a subdirectory versioned by the Stats schema fingerprint, so a
// cache directory written by an older binary reads as a miss, not as a
// silently half-decoded Stats.
func TestDiskLayoutIsSchemaVersioned(t *testing.T) {
	dir := t.TempDir()
	p := testProg(t)
	in := testInput(500)
	cfg := pipeline.DefaultConfig()

	warm := New(dir)
	key := warm.KeyOf(p, in, cfg)

	// Plant a legacy flat-layout entry at the pre-versioning path for this
	// exact key, holding decodable but wrong statistics.
	legacy, err := pipeline.MarshalStats(pipeline.Stats{Cycles: 123456789, Retired: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key.String()+".json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := warm.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := warm.Metrics(); m.Misses != 1 || m.DiskHits != 0 {
		t.Errorf("metrics with legacy entry = %+v, want a clean miss", m)
	}
	if a.Cycles == 123456789 {
		t.Error("legacy flat-layout entry was served")
	}

	// The fresh entry must live under the schema-versioned subdirectory.
	want := filepath.Join(dir, "s-"+pipeline.StatsSchema(), key.String()+".json")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("versioned entry missing at %s: %v", want, err)
	}

	// A cold cache over the same directory serves the versioned entry.
	cold := New(dir)
	b, err := cold.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.Metrics(); m.DiskHits != 1 || m.Misses != 0 {
		t.Errorf("cold metrics = %+v, want pure disk hit", m)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("versioned disk entry differs from simulated result")
	}

	// An entry written under a different (stale) schema subdirectory is
	// invisible too.
	staleDir := filepath.Join(dir, "s-000000000000")
	if err := os.MkdirAll(staleDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staleDir, key.String()+".json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := New(dir)
	if _, err := stale.Run(context.Background(), p, in, cfg); err != nil {
		t.Fatal(err)
	}
	if m := stale.Metrics(); m.DiskHits != 1 {
		t.Errorf("stale-schema sibling perturbed lookup: %+v", m)
	}
}

// Traced runs bypass memoization: a cached answer would emit no events. The
// bypass must neither consult nor populate any cache layer.
func TestTracerBypassesMemoization(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	p := testProg(t)
	in := testInput(500)
	cfg := pipeline.DefaultConfig()

	cols := [2]*trace.Collector{trace.NewCollector(), trace.NewCollector()}
	var results [2]pipeline.Stats
	for i, col := range cols {
		tcfg := cfg
		tcfg.Tracer = col
		st, err := c.Run(context.Background(), p, in, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = st
	}
	if cols[0].Len() == 0 || cols[1].Len() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if cols[0].Len() != cols[1].Len() {
		t.Errorf("event counts differ across identical runs: %d vs %d", cols[0].Len(), cols[1].Len())
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("traced reruns disagree")
	}
	m := c.Metrics()
	if m.Bypasses != 2 || m.Hits != 0 || m.Misses != 0 || m.DiskHits != 0 {
		t.Errorf("metrics = %+v, want 2 pure bypasses", m)
	}
	if m.SimWall <= 0 || m.SimCycles != 2*results[0].Cycles {
		t.Errorf("bypassed runs not counted in throughput: %+v", m)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "s-*", "*.json")); len(entries) != 0 {
		t.Errorf("bypassed run persisted entries: %v", entries)
	}

	// The same simulation untraced is a fresh miss (nothing was cached), and
	// it must agree with the traced results.
	st, err := c.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Misses != 1 {
		t.Errorf("untraced follow-up metrics = %+v, want 1 miss", m)
	}
	if !reflect.DeepEqual(st, results[0]) {
		t.Error("untraced result differs from traced result")
	}
	// Bypasses are not lookups: the hit rate denominator excludes them.
	if got := c.Metrics().Requests(); got != 1 {
		t.Errorf("Requests() = %d, want 1 (bypasses excluded)", got)
	}
}
