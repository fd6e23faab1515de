package failures_test

import (
	"math"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// TestCategorySamplesMatchFilter checks the one-pass category split
// against the sub-log oracle it replaces — Filter per category, then
// InterarrivalHours, RecoveryHours and a GPU-count histogram over the
// sub-log's records — bit for bit, on both systems.
func TestCategorySamplesMatchFilter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile *synth.Profile
		seed    int64
	}{
		{"t2", synth.Tsubame2Profile(), 42},
		{"t2-seed7", synth.Tsubame2Profile(), 7},
		{"t3", synth.Tsubame3Profile(), 42},
		{"t3-seed7", synth.Tsubame3Profile(), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, err := synth.Generate(tc.profile, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			requireSplitMatchesFilter(t, log)
			requireSplitMatchesFilter(t, log.DropFirst(log.Len()/3))
		})
	}
	var empty failures.Log
	if got := empty.CategorySamples(); len(got) != 0 {
		t.Fatalf("empty log split into %d samples", len(got))
	}
}

func requireSplitMatchesFilter(t *testing.T, log *failures.Log) {
	t.Helper()
	counts := log.ByCategory()
	got := log.CategorySamples()
	if len(got) != len(counts) {
		t.Fatalf("split has %d categories, log has %d", len(got), len(counts))
	}
	slots := failures.GPUsPerNode(log.System())
	for i, cs := range got {
		if i > 0 && !(got[i-1].Category < cs.Category) {
			t.Fatalf("split not ascending by category at %d: %s after %s", i, cs.Category, got[i-1].Category)
		}
		cat := cs.Category
		sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
		if cs.Count != sub.Len() || cs.Count != counts[cat] {
			t.Fatalf("%s: count %d, sub-log %d, ByCategory %d", cat, cs.Count, sub.Len(), counts[cat])
		}
		requireBits(t, string(cat)+" gaps", cs.Gaps, sub.InterarrivalHours())
		requireBits(t, string(cat)+" recovery", cs.Recovery, sub.RecoveryHours())
		want := make([]int, slots)
		for _, r := range sub.Records() {
			if k := len(r.GPUs); k > 0 {
				want[k-1]++
			}
		}
		if len(cs.Involvement) != slots {
			t.Fatalf("%s: involvement histogram has %d slots, want %d", cat, len(cs.Involvement), slots)
		}
		for k := range want {
			if cs.Involvement[k] != want[k] {
				t.Fatalf("%s: %d-card involvement %d, sub-log %d", cat, k+1, cs.Involvement[k], want[k])
			}
		}
	}
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}
