package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// tinyConfig is every workload at its shrunken size: same code paths and
// checks, corpus subsets and short job sequences.
func tinyConfig(workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 1, trace: trace, par: runtime.NumCPU(), size: tinySize, root: ".."}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs every workload untraced and traced
// at tiny size: each must pass its own checks and print every declared
// metric with its unit.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, info, err := run(w, tinyConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			if d, _ := info["stats_digest"].(string); len(d) != 64 {
				t.Errorf("%s trace=%v: stats_digest %q", name, trace, d)
			}
		}
	}
}

// TestCorruptedGoldenRowFails proves the paper-eval table check bites: one
// golden cell changed must count as a failed operation.
func TestCorruptedGoldenRowFails(t *testing.T) {
	data, err := os.ReadFile("../evaluation_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	corrupted := false
	for i, l := range lines {
		if f := strings.Fields(l); len(f) == 19 && f[0] == "BaseIPC" {
			f[7] = "9.99" // eon's column
			lines[i] = strings.Join(f, " ")
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no Table 2 BaseIPC row in evaluation_output.txt")
	}
	rc := tinyConfig("paper-eval", false)
	rc.golden = strings.Join(lines, "\n")
	res, _, err := run(workloads["paper-eval"], rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted golden row passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestCorruptedRepeatResultFails proves the serve-gen repeat check bites: a
// first submission whose result differs from its repeat must fail.
func TestCorruptedRepeatResultFails(t *testing.T) {
	rc := tinyConfig("serve-gen", false)
	rc.corruptFirst = true
	res, _, err := run(workloads["serve-gen"], rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted first result passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q := quantile(xs, 0.99); q != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", q)
	}
	if q := quantile(xs, 0.5); q != 500.5 {
		t.Errorf("p50 of 1..1000 = %v, want 500.5", q)
	}
}
