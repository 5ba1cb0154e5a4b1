// Package simcache memoizes cycle-level simulations. The paper's evaluation
// re-runs pipeline.Run over the same (program, input, config) triples many
// times — every figure re-simulates the baseline, and several figures share
// selection configurations — so the harness routes all simulations through a
// content-addressed cache: a stable SHA-256 key over the canonical program
// serialization (code + diverge annotations), the input tape and the machine
// configuration.
//
// One generic memo (memo.go) implements the memoization; a Cache holds two
// instances of it, one for full-fidelity pipeline.Stats (Run) and one for
// sampled sample.Result estimates (RunSampled), with disjoint keys and disk
// directories so neither ever answers for the other. Each instance
// guarantees a distinct simulation executes exactly once per process:
// concurrent requests for the same key are deduplicated singleflight-style,
// with later arrivals blocking on the first runner. An optional on-disk
// layer (enabled by the DMP_CACHE_DIR environment variable) persists results
// across dmpbench/dmpsim invocations.
//
// The cache also keeps run metrics — hits, misses, simulated cycles and
// aggregate simulation wall time — surfaced by the CLIs via -metrics-json
// and the evaluation summary footer.
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"

	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// EnvDir names the environment variable that enables the on-disk layer.
const EnvDir = "DMP_CACHE_DIR"

// keySchema is folded into every key. It has two components: a hand-bumped
// generation for changes to the key derivation itself, and the reflection-
// derived fingerprint of the Stats wire shape (pipeline.StatsSchema), so that
// extending Stats automatically invalidates old entries — without it, stale
// DMP_CACHE_DIR entries written by an older binary would unmarshal with the
// new fields silently zero-valued. The same fingerprint versions the on-disk
// layout (see New).
var keySchema = "dmp-simcache-v2\x00" + pipeline.StatsSchema() + "\x00"

// sampledKeySchema versions the sampled-entry key derivation. It folds in
// sample.Schema() — the fingerprint of the Result wire shape — so extending
// Result invalidates stale sampled entries the same way StatsSchema guards
// full-fidelity ones.
var sampledKeySchema = "dmp-simcache-sampled-v1\x00" + sample.Schema() + "\x00"

// Key identifies one simulation: a content hash of program, input and config.
type Key [sha256.Size]byte

// String returns the hexadecimal form of the key (the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Cache memoizes pipeline runs. The zero value is not usable; construct with
// New or FromEnv. A nil *Cache is valid and simply runs every simulation.
type Cache struct {
	dir     string // "" = memory-only
	full    *memo[pipeline.Stats]
	sampled *memo[sample.Result]
	metrics Metrics
}

// New returns a cache with an optional persistent directory (created on
// first store). An empty dir keeps the cache memory-only.
//
// Entries live under schema-versioned subdirectories: "s-<StatsSchema>" for
// full-fidelity runs and "sm-<sample.Schema>" for sampled ones. The
// fingerprints are already folded into the keys; repeating them in the path
// keeps generations physically separate, so stale-schema files can never be
// picked up (and are easy to garbage-collect by directory).
func New(dir string) *Cache {
	c := &Cache{dir: dir}
	c.full = newMemo(&c.metrics, dir, "s-"+pipeline.StatsSchema(), pipeline.MarshalStats, pipeline.UnmarshalStats,
		func(m *Metrics, st pipeline.Stats) {
			m.simCycles.Add(st.Cycles)
			m.simInsts.Add(st.Retired)
		})
	// Sampled runs count in Sampled only: their estimated cycles never
	// enter SimCycles, which means cycles the pipeline really simulated.
	c.sampled = newMemo(&c.metrics, dir, "sm-"+sample.Schema(), sample.MarshalResult, sample.UnmarshalResult,
		func(m *Metrics, _ sample.Result) { m.sampled.Add(1) })
	return c
}

// FromEnv returns a cache whose disk layer is controlled by DMP_CACHE_DIR.
func FromEnv() *Cache { return New(os.Getenv(EnvDir)) }

// Dir returns the persistent directory, or "" for a memory-only cache.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// KeyOf derives the cache key for one simulation.
func (c *Cache) KeyOf(prog *isa.Program, input []int64, cfg pipeline.Config) Key {
	h := sha256.New()
	h.Write([]byte(keySchema))
	ph := prog.Hash()
	h.Write(ph[:])
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(input)))
	h.Write(n[:])
	buf := make([]byte, 0, 8*len(input))
	for _, v := range input {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	h.Write(buf)
	h.Write(cfg.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyOfSampled derives the cache key for one sampled simulation: the
// full-fidelity key of the underlying (program, input, config) triple,
// extended with the sampling configuration's canonical form. Two runs with
// equal canonical confs produce identical Results (interval placement is a
// pure function of instruction count and conf), which is what makes sampled
// runs memoizable at all.
func (c *Cache) KeyOfSampled(prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) Key {
	base := c.KeyOf(prog, input, cfg)
	h := sha256.New()
	h.Write([]byte(sampledKeySchema))
	h.Write(base[:])
	h.Write(sc.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// Run returns the memoized statistics for the simulation, executing it at
// most once per process per distinct (program, input, config) triple. The
// simulation aborts when ctx ends; an aborted run is never memoized (see
// memo.run). On a nil cache it degenerates to pipeline.RunCtx. Traced runs
// (cfg.Tracer != nil) bypass memoization entirely: a cached answer would
// silently emit no events, and the tracer is deliberately not part of the
// cache key.
func (c *Cache) Run(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config) (pipeline.Stats, error) {
	sim := func(ctx context.Context) (pipeline.Stats, error) { return pipeline.RunCtx(ctx, prog, input, cfg) }
	if c == nil {
		return sim(ctx)
	}
	if cfg.Tracer != nil {
		return c.full.bypass(ctx, sim)
	}
	return c.full.run(ctx, c.KeyOf(prog, input, cfg), sim)
}

// RunSampled returns the memoized sample.Result for the sampled simulation,
// executing it at most once per process per distinct (program, input,
// config, sampling conf) tuple. Sampled entries live in their own memo and
// on-disk namespace — a sampled estimate and a full-fidelity Stats are
// different animals and must never answer for each other. Cancellation,
// the nil cache and traced configs behave as in Run.
func (c *Cache) RunSampled(ctx context.Context, prog *isa.Program, input []int64, cfg pipeline.Config, sc sample.SampleConf) (sample.Result, error) {
	sim := func(ctx context.Context) (sample.Result, error) { return sample.Run(ctx, prog, input, cfg, sc) }
	if c == nil {
		return sim(ctx)
	}
	if cfg.Tracer != nil {
		return c.sampled.bypass(ctx, sim)
	}
	return c.sampled.run(ctx, c.KeyOfSampled(prog, input, cfg, sc), sim)
}

// Metrics returns a snapshot of the cache counters.
func (c *Cache) Metrics() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return c.metrics.snapshot()
}
