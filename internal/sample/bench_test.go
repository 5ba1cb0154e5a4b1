package sample_test

import (
	"context"
	"testing"

	"dmp/internal/emu"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
)

// BenchmarkSampledRun measures the steady-state cost of a sampled simulation
// of the gzip corpus benchmark at the default SampleConf — the configuration
// every sampled evaluation gate runs at. The first (untimed) run primes the
// instruction-count memo, so iterations measure the config-sweep steady
// state: one chained stream, no discovery pass. Allocations per op are part
// of the benchgate contract: the stream must not accumulate per-interval
// garbage beyond the fixed machine + pipeline images.
func BenchmarkSampledRun(b *testing.B) {
	prog, input := compileBench(b, "gzip")
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConf()
	r, err := sample.Run(context.Background(), prog, input, cfg, sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.Run(context.Background(), prog, input, cfg, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.TotalInsts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkWarmingLadder measures the three fast-forward speeds a sampled
// run moves at, on the gzip workload: SkipPlain (no warming), Skip with no
// predictor tail (cache, BTB, history and RAS warming) and Skip training the
// perceptron and confidence estimator throughout (the predTail rate). Each
// op fast-forwards the first ladderInsts instructions of a fresh machine.
func BenchmarkWarmingLadder(b *testing.B) {
	const ladderInsts = 1_000_000
	prog, input := compileBench(b, "gzip")
	cfg := pipeline.DefaultConfig()
	cfg.MaxInsts = 0
	ctx := context.Background()
	for _, c := range []struct {
		name string
		skip func(*pipeline.Sim) (uint64, error)
	}{
		{"plain", func(s *pipeline.Sim) (uint64, error) { return s.SkipPlain(ctx, ladderInsts) }},
		{"warm", func(s *pipeline.Sim) (uint64, error) { return s.Skip(ctx, ladderInsts, 0) }},
		{"pred", func(s *pipeline.Sim) (uint64, error) { return s.Skip(ctx, ladderInsts, ladderInsts) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var done uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim := pipeline.NewFromMachine(emu.New(prog, input, 0), cfg)
				b.StartTimer()
				n, err := c.skip(sim)
				if err != nil || n != ladderInsts {
					b.Fatalf("skipped %d of %d: %v", n, ladderInsts, err)
				}
				done += n
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}
