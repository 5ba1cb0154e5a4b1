package harness

// Population-scale differential test: a generated corpus spanning every
// ProgramConf preset is run through the full quality gate — static
// verification of all 8 selection algorithms' artifacts plus the
// emu-vs-pipeline architectural differential for baseline and DMP — with
// zero findings allowed. Short mode (and the race detector, where the
// simulator is an order of magnitude slower) uses a reduced corpus; the
// plain `go test` run inside `make ci` uses the full one.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dmp/internal/gen"
	"dmp/internal/simcache"
	"dmp/internal/workpool"
)

func populationCorpusSize() int {
	switch {
	case testing.Short():
		return 25
	case raceEnabled:
		return 60
	default:
		return 200
	}
}

func TestGeneratedPopulationDifferential(t *testing.T) {
	presets := gen.Presets()
	if len(presets) < 3 {
		t.Fatalf("only %d presets; differential population needs >= 3", len(presets))
	}
	progs := gen.BuildCorpus(presets, populationCorpusSize(), 1)
	var mu sync.Mutex
	failures := 0
	err := workpool.RunIndexed(context.Background(), len(progs), 0, func(i int) string { return progs[i].Name }, nil, func(i int) error {
		if issues := CheckGenerated(progs[i]); len(issues) > 0 {
			mu.Lock()
			failures++
			mu.Unlock()
			t.Errorf("%s (seed %d):\n  %s", progs[i].Name, progs[i].Seed, strings.Join(issues, "\n  "))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Logf("%d generated programs across %d presets: all clean", len(progs), len(presets))
	}
}

// TestRunPopulationReport runs the per-idiom win/loss aggregation end to end
// on a small corpus and checks the report's internal consistency.
func TestRunPopulationReport(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 8
	}
	progs := gen.BuildCorpus(gen.Presets(), n, 5)
	rep, err := RunPopulation(context.Background(), progs, PopulationOptions{Cache: simcache.New("")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != n || len(rep.Results) != n {
		t.Fatalf("report covers %d/%d programs", len(rep.Results), n)
	}
	groupN := 0
	for _, g := range rep.Groups {
		groupN += g.N
		if g.Wins+g.Loss+g.Flat != g.N {
			t.Errorf("idiom %s: wins %d + losses %d + flat %d != n %d", g.Idiom, g.Wins, g.Loss, g.Flat, g.N)
		}
	}
	if groupN != n {
		t.Fatalf("idiom groups cover %d programs, want %d", groupN, n)
	}
	for _, r := range rep.Results {
		if r.BaseIPC <= 0 {
			t.Errorf("%s: degenerate baseline IPC %v", r.Name, r.BaseIPC)
		}
		if r.Idiom == "" {
			t.Errorf("%s: missing idiom label", r.Name)
		}
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "population:") || !strings.Contains(out, "total") {
		t.Errorf("render missing header or totals:\n%s", out)
	}
	for _, g := range rep.Groups {
		if !strings.Contains(out, g.Idiom) {
			t.Errorf("render missing idiom row %q", g.Idiom)
		}
	}
}
