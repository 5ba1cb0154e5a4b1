package simcache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dmp/internal/codegen"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

const testSrc = `
var acc = 0;
func main() {
	while (inavail()) {
		var v = in();
		if (v & 1) { acc = acc + v; } else { acc = acc - 1; }
	}
	out(acc);
}
`

func testProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := codegen.CompileSource(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testInput(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i*2654435761) % 1024
	}
	return in
}

func TestKeyStability(t *testing.T) {
	c := New("")
	p1 := testProg(t)
	p2 := testProg(t) // independent compile of the same source
	in := testInput(100)
	cfg := pipeline.DefaultConfig()
	k1 := c.KeyOf(p1, in, cfg)
	k2 := c.KeyOf(p2, in, cfg)
	if k1 != k2 {
		t.Error("independent compiles of the same source produced different keys")
	}

	annots := map[int]*isa.DivergeInfo{}
	for pc, inst := range p1.Code {
		if inst.IsCondBranch() {
			annots[pc] = &isa.DivergeInfo{CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: pc + 1, MergeProb: 0.5}}}
			break
		}
	}
	if len(annots) == 0 {
		t.Fatal("test program has no conditional branch")
	}
	if k := c.KeyOf(p1.WithAnnots(annots), in, cfg); k == k1 {
		t.Error("annotation sidecar did not change the key")
	}
	in2 := append(append([]int64(nil), in...), 7)
	if k := c.KeyOf(p1, in2, cfg); k == k1 {
		t.Error("input tape did not change the key")
	}
	cfg2 := cfg
	cfg2.DMP = true
	if k := c.KeyOf(p1, in, cfg2); k == k1 {
		t.Error("config did not change the key")
	}
}

func TestRunMemoizes(t *testing.T) {
	c := New("")
	p := testProg(t)
	in := testInput(500)
	cfg := pipeline.DefaultConfig()

	a, err := c.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(context.Background(), p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("memoized result differs from first run")
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Hits != 1 {
		t.Errorf("metrics = %+v, want 1 miss and 1 hit", m)
	}
	if m.SimCycles != a.Cycles {
		t.Errorf("SimCycles = %d, want %d", m.SimCycles, a.Cycles)
	}
	if m.SimWall <= 0 {
		t.Error("SimWall not recorded")
	}
	if m.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", m.HitRate())
	}
}

// namespace drives one of the cache's two memo instances through a common
// signature, so behaviour tests run table-driven over both.
type namespace struct {
	name string
	glob string // disk entry directory pattern
	// slowN is an input length whose run lasts long enough to be
	// cancelled mid-flight (sampled runs are several times faster).
	slowN int
	run   func(c *Cache, ctx context.Context, p *isa.Program, in []int64) (any, error)
	// inflight returns the number of entries in the in-flight table.
	inflight func(c *Cache) int
}

var namespaces = []namespace{
	{
		name:  "full",
		glob:  "s-*",
		slowN: 200_000,
		run: func(c *Cache, ctx context.Context, p *isa.Program, in []int64) (any, error) {
			return c.Run(ctx, p, in, pipeline.DefaultConfig())
		},
		inflight: func(c *Cache) int { return inflight(c.full) },
	},
	{
		name:  "sampled",
		glob:  "sm-*",
		slowN: 1_000_000,
		run: func(c *Cache, ctx context.Context, p *isa.Program, in []int64) (any, error) {
			return c.RunSampled(ctx, p, in, pipeline.DefaultConfig(), sample.DefaultConf())
		},
		inflight: func(c *Cache) int { return inflight(c.sampled) },
	},
}

func inflight[V any](m *memo[V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.mem)
}

func TestRunDeduplicatesConcurrent(t *testing.T) {
	for _, ns := range namespaces {
		t.Run(ns.name, func(t *testing.T) {
			c := New("")
			p := testProg(t)
			in := testInput(2000)

			const workers = 8
			var wg sync.WaitGroup
			results := make([]any, workers)
			errs := make([]error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = ns.run(c, context.Background(), p, in)
				}(i)
			}
			wg.Wait()
			for i := 0; i < workers; i++ {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(results[i], results[0]) {
					t.Errorf("worker %d saw a different result", i)
				}
			}
			m := c.Metrics()
			if m.Misses != 1 {
				t.Errorf("misses = %d, want exactly 1 execution", m.Misses)
			}
			if m.Hits+m.Dedups != workers-1 {
				t.Errorf("hits+dedups = %d, want %d", m.Hits+m.Dedups, workers-1)
			}
		})
	}
}

func TestDiskLayer(t *testing.T) {
	for _, ns := range namespaces {
		t.Run(ns.name, func(t *testing.T) {
			dir := t.TempDir()
			p := testProg(t)
			in := testInput(500)

			warm := New(dir)
			a, err := ns.run(warm, context.Background(), p, in)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := filepath.Glob(filepath.Join(dir, ns.glob, "*.json"))
			if err != nil || len(entries) != 1 {
				t.Fatalf("cache dir entries = %v (err %v), want 1", entries, err)
			}

			cold := New(dir)
			b, err := ns.run(cold, context.Background(), p, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("disk-cached result differs from simulated result")
			}
			m := cold.Metrics()
			if m.DiskHits != 1 || m.Misses != 0 {
				t.Errorf("metrics = %+v, want pure disk hit", m)
			}

			// A corrupt entry must read as a miss, not an error.
			if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			rec := New(dir)
			cres, err := ns.run(rec, context.Background(), p, in)
			if err != nil {
				t.Fatal(err)
			}
			if rm := rec.Metrics(); rm.Misses != 1 || rm.DiskHits != 0 {
				t.Errorf("corrupt entry metrics = %+v, want re-simulation", rm)
			}
			if !reflect.DeepEqual(cres, a) {
				t.Error("re-simulated result differs")
			}
		})
	}
}

func TestNilCacheRuns(t *testing.T) {
	var c *Cache
	p := testProg(t)
	st, err := c.Run(context.Background(), p, testInput(100), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired == 0 {
		t.Error("nil cache run retired nothing")
	}
	if got := c.Metrics(); got != (Snapshot{}) {
		t.Errorf("nil cache metrics = %+v", got)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{Hits: 6, Dedups: 1, DiskHits: 1, Misses: 2, SimWall: 2e9, SimCycles: 100e6}
	if s.Requests() != 10 {
		t.Errorf("Requests = %d", s.Requests())
	}
	if got := s.HitRate(); got != 0.8 {
		t.Errorf("HitRate = %v", got)
	}
	if got := s.CyclesPerSec(); got != 50e6 {
		t.Errorf("CyclesPerSec = %v", got)
	}
	d := s.Sub(Snapshot{Hits: 3, Misses: 1, SimWall: 1e9, SimCycles: 40e6})
	if d.Hits != 3 || d.Misses != 1 || d.SimWall != 1e9 || d.SimCycles != 60e6 {
		t.Errorf("Sub = %+v", d)
	}
	if (Snapshot{}).HitRate() != 0 || (Snapshot{}).CyclesPerSec() != 0 {
		t.Error("zero snapshot helpers must return 0")
	}
}
