package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonID extracts the cell ID from one shard NDJSON line.
func jsonID(t *testing.T, line []byte) string {
	t.Helper()
	var rec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("parsing shard line %q: %v", line, err)
	}
	return rec.ID
}

func testGrid() Grid {
	return Grid{
		Systems:       []string{"t2"},
		CkptIntervals: []float64{0, 24},
		Spares:        []int{-1, 1},
		Accuracies:    []float64{0, 0.5},
		Seeds:         []int64{1, 2},
	}
}

func testParams() Params {
	return Params{
		HorizonHours:        500,
		Crews:               4,
		LeadTimeHours:       72,
		AlarmWindowHours:    24,
		CheckpointCostHours: 0.1,
		RestartCostHours:    0.2,
		LogSeed:             7,
		MinCount:            10,
	}
}

func TestGridEnumeration(t *testing.T) {
	g := testGrid()
	cells := g.Cells()
	if len(cells) != g.Size() || g.Size() != 16 {
		t.Fatalf("got %d cells, Size()=%d, want 16", len(cells), g.Size())
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
	}
	// Seeds vary fastest, systems slowest.
	if cells[0].ID != "t2/ck0/sp-1/acc0/seed1" {
		t.Errorf("first cell ID = %s", cells[0].ID)
	}
	if cells[1].Seed != 2 || cells[2].Accuracy != 0.5 {
		t.Errorf("enumeration order wrong: %+v %+v", cells[1], cells[2])
	}
}

func TestGridValidate(t *testing.T) {
	cases := []Grid{
		{},
		{Systems: []string{"t2"}, CkptIntervals: []float64{-1}, Spares: []int{0}, Accuracies: []float64{0}, Seeds: []int64{1}},
		{Systems: []string{"t2"}, CkptIntervals: []float64{0}, Spares: []int{-2}, Accuracies: []float64{0}, Seeds: []int64{1}},
		{Systems: []string{"t2"}, CkptIntervals: []float64{0}, Spares: []int{0}, Accuracies: []float64{1}, Seeds: []int64{1}},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid grid passed validation", i)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

// TestParamsValidate pins the horizon checks: a zero, NaN or infinite
// horizon is rejected up front (an infinite one never lets a cell
// finish, so a sweep would ignore SIGTERM).
func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		p := testParams()
		p.HorizonHours = h
		if err := p.Validate(); err == nil {
			t.Errorf("horizon %v passed validation", h)
		}
	}
}

func TestEvaluatorDeterministic(t *testing.T) {
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	cell := testGrid().Cells()[5]
	a, err := ev.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same cell evaluated twice diverged:\n%+v\n%+v", a, b)
	}
	if !(a.Availability > 0 && a.Availability <= 1) {
		t.Errorf("availability %v out of range", a.Availability)
	}
	if !(a.CkptEfficiency > 0 && a.CkptEfficiency < 1) {
		t.Errorf("checkpoint efficiency %v out of range", a.CkptEfficiency)
	}
	if a.GoodputFraction != a.Availability*a.CkptEfficiency {
		t.Errorf("goodput %v != availability*efficiency", a.GoodputFraction)
	}
}

func TestEvaluatorRejectsUnknownSystem(t *testing.T) {
	if _, err := NewEvaluator(testParams(), []string{"cray"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(Cell{ID: "x", System: "t3"}); err == nil {
		t.Fatal("unfitted system accepted")
	}
}

func runSweep(t *testing.T, dir string, parallelism int, resume bool) []byte {
	t.Helper()
	report, err := Run(context.Background(), RunnerConfig{
		Grid: testGrid(), Params: testParams(),
		OutDir: dir, Parallelism: parallelism, Resume: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepReportDeterministicAcrossParallelism(t *testing.T) {
	one := runSweep(t, t.TempDir(), 1, false)
	four := runSweep(t, t.TempDir(), 4, false)
	if !bytes.Equal(one, four) {
		t.Fatal("report bytes differ between parallelism 1 and 4")
	}
	if n := bytes.Count(one, []byte("\n")); n != testGrid().Size() {
		t.Fatalf("report has %d lines, want %d", n, testGrid().Size())
	}
}

func TestSweepRefusesDirtyDirWithoutResume(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, dir, 2, false)
	_, err := Run(context.Background(), RunnerConfig{
		Grid: testGrid(), Params: testParams(), OutDir: dir, Parallelism: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("re-run without resume: got %v, want refusal mentioning resume", err)
	}
}

// TestSweepResumeAfterTornKill simulates a SIGKILL that tore the
// trailing lines of both the manifest and a shard: the resumed sweep
// must recompute exactly the un-manifested cells and merge to a report
// byte-identical to an uninterrupted run.
func TestSweepResumeAfterTornKill(t *testing.T) {
	want := runSweep(t, t.TempDir(), 2, false)

	dir := t.TempDir()
	runSweep(t, dir, 2, false)
	if err := os.Remove(filepath.Join(dir, ReportName)); err != nil {
		t.Fatal(err)
	}
	// A kill can only tear the protocol in write order: a shard's final
	// line may be partial (its manifest line then never happened), and
	// the manifest's own final line may be partial. Reconstruct that
	// state: tear the last line of shard 0, then drop the IDs of the
	// shard's last two lines from the manifest, leaving the second as a
	// torn fragment (its shard line complete but unmanifested — the
	// "killed between the two writes" window).
	shards, err := filepath.Glob(filepath.Join(dir, shardPattern))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards: %v", err)
	}
	sdata, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	slines := completeLines(sdata)
	if len(slines) < 2 {
		t.Fatalf("shard too short: %d lines", len(slines))
	}
	tornID := jsonID(t, slines[len(slines)-1])
	orphanID := jsonID(t, slines[len(slines)-2])
	if err := os.WriteFile(shards[0], sdata[:len(sdata)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var torn []byte
	for _, line := range completeLines(data) {
		if string(line) == tornID || string(line) == orphanID {
			continue
		}
		torn = append(torn, line...)
		torn = append(torn, '\n')
	}
	torn = append(torn, orphanID[:5]...) // manifest write itself was torn
	if err := os.WriteFile(manifestPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got := runSweep(t, dir, 3, true) // different worker count on purpose
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report differs from uninterrupted run")
	}
}

func TestMergeFailsOnIncompleteSweep(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, dir, 1, false)
	extra := testGrid()
	extra.Seeds = append(extra.Seeds, 99)
	if _, err := Merge(dir, extra.Cells()); err == nil {
		t.Fatal("merge of incomplete sweep succeeded")
	}
}

func TestCompleteLines(t *testing.T) {
	got := completeLines([]byte("a\nbb\n\nccc"))
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "bb" {
		t.Fatalf("completeLines = %q", got)
	}
	if n := len(completeLines(nil)); n != 0 {
		t.Fatalf("completeLines(nil) = %d lines", n)
	}
}
