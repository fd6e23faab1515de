package tsubame_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	tsubame "repro"
	"repro/internal/core"
)

// TestParallelReportByteIdentical is the end-to-end determinism golden:
// the full rendered report — every table and figure of the paper — built
// from a parallel analysis is byte-identical to the sequential one, on
// both the Tsubame-2 and Tsubame-3 synthetic traces. Each single-log
// study from core.Run at the same width must equal the comparison's.
func TestParallelReportByteIdentical(t *testing.T) {
	t2, t3, err := tsubame.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.Compare(t2, t3, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 0, 4, 8} {
		par, err := core.Compare(t2, t3, core.Options{Parallelism: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("width %d: comparison structure diverged from sequential", width)
		}
		if a, b := tsubame.RenderFullReport(seq), tsubame.RenderFullReport(par); a != b {
			t.Errorf("width %d: full report not byte-identical (%d vs %d bytes)", width, len(a), len(b))
		}
		if a, b := tsubame.RenderMarkdownReport(seq), tsubame.RenderMarkdownReport(par); a != b {
			t.Errorf("width %d: markdown report not byte-identical", width)
		}
		for _, pair := range []struct {
			log  *tsubame.Log
			want *tsubame.Study
		}{{t2, seq.Old}, {t3, seq.New}} {
			study, err := core.Run(pair.log, core.Options{Parallelism: width})
			if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			if !reflect.DeepEqual(study, pair.want) {
				t.Errorf("width %d: %v study diverged from the sequential comparison's", width, pair.log.System())
			}
		}
	}
}

// TestIndexedRunMatchesPreIndexGolden is the analysis battery's
// equivalence gate: the committed golden files pin the full rendered
// report for seed 42, so a byte-equal render proves the memoized-index
// battery (internal/index) reproduces the committed sequential output
// exactly — element order, float accumulation order and all — at every
// pool width, and through the facade's default width. The goldens are
// regenerated (go test ./internal/report/ -run Golden -update) whenever
// the generator's sampling realization intentionally changes.
func TestIndexedRunMatchesPreIndexGolden(t *testing.T) {
	t2, t3, err := tsubame.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("internal", "report", "testdata", "full_report_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantMD, err := os.ReadFile(filepath.Join("internal", "report", "testdata", "markdown_report_seed42.md"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, cmp *tsubame.Comparison) {
		t.Helper()
		if got := tsubame.RenderFullReport(cmp); got != string(want) {
			t.Errorf("%s: indexed full report diverged from the pre-index golden (%d vs %d bytes)", name, len(got), len(want))
		}
		if got := tsubame.RenderMarkdownReport(cmp); got != string(wantMD) {
			t.Errorf("%s: indexed markdown report diverged from the pre-index golden", name)
		}
	}
	cmp, err := tsubame.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	check("facade", cmp)
	for _, width := range []int{1, 2, 0} {
		cmp, err := core.Compare(t2, t3, core.Options{Parallelism: width})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("width %d", width), cmp)
	}
}

// TestAnalyzeParallelMatchesAnalyze pins the single-study entry point on
// both generations: the facade's default width and an explicit pool width
// give the same study.
func TestAnalyzeParallelMatchesAnalyze(t *testing.T) {
	t2, t3, err := tsubame.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*tsubame.Log{t2, t3} {
		seq, err := tsubame.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.Run(log, core.Options{Parallelism: 6})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: parallel study diverged from sequential", log.System())
		}
	}
}

// TestGenerateManyMatchesSequential: multi-seed generation must be pure
// in (profile, seed) regardless of pool width.
func TestGenerateManyMatchesSequential(t *testing.T) {
	p := tsubame.Tsubame2Profile()
	seeds := []int64{1, 2, 3, 4, 5, 6}
	par, err := tsubame.GenerateMany(p, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seeds) {
		t.Fatalf("got %d logs, want %d", len(par), len(seeds))
	}
	for i, seed := range seeds {
		seq, err := tsubame.GenerateFromProfile(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par[i]) {
			t.Errorf("seed %d: parallel generation diverged from sequential", seed)
		}
	}
}

// TestSimulationTrialsMatchSequential: each parallel trial must be
// byte-identical to a lone sequential run with the same seed, including
// under a stateful per-trial parts policy.
func TestSimulationTrialsMatchSequential(t *testing.T) {
	t2, _, err := tsubame.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := tsubame.FitProcesses(t2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tsubame.SimConfig{
		Nodes: 256, GPUsPerNode: 3, HorizonHours: 2000,
		Processes: procs, Crews: 4,
	}
	parts := func() (tsubame.PartsPolicy, error) { return tsubame.FixedSpares(1, 72) }
	seeds := []int64{7, 8, 9, 10}
	par, err := tsubame.RunSimulationTrials(context.Background(), cfg, seeds, 4, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		trial := cfg
		trial.Seed = seed
		p, err := parts()
		if err != nil {
			t.Fatal(err)
		}
		trial.Parts = p
		seq, err := tsubame.RunSimulation(trial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par[i]) {
			t.Errorf("seed %d: parallel trial diverged from sequential", seed)
		}
	}
	st, err := tsubame.SummarizeSimulationTrials(par)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != len(seeds) || st.MeanAvailability <= 0 || st.MeanAvailability > 1 {
		t.Errorf("implausible trial stats: %+v", st)
	}
	if st.MinAvailability > st.MeanAvailability || st.MaxAvailability < st.MeanAvailability {
		t.Errorf("availability bounds do not bracket the mean: %+v", st)
	}
}
