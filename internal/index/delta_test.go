package index

import (
	"reflect"
	"testing"

	"repro/internal/failures"
)

// TestTailAppendCarriesCategorySeries pins the O(batch) carry of the
// per-category facets: after a tail append to an epoch whose category
// series (and their sorted arenas) were materialized, the next view
// holds them already built — before any read — and they equal a batch
// build over the merged log.
func TestTailAppendCarriesCategorySeries(t *testing.T) {
	recs := testLog(t).Records()
	half := len(recs) / 2
	store, err := NewStore(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := store.Append(recs[:half])
	if err != nil {
		t.Fatal(err)
	}
	v := first.View()
	for cat := range v.CategoryCounts() {
		v.SortedCategoryGaps(cat)
	}
	tail := recs[half : half+40]
	if tail[0].Time.Before(recs[half-1].Time) {
		t.Fatal("fixture: the batch does not start at the log's tail")
	}
	next, err := store.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	got := next.View()
	if !got.catSeriesOnce.Done() {
		t.Fatal("tail append dropped the materialized category series: the next read rebuilds them from the whole log")
	}
	if !got.catSortedOnce.Done() {
		t.Fatal("tail append dropped the materialized sorted category arenas")
	}

	wantLog, err := failures.NewLog(failures.Tsubame2, recs[:half+40])
	if err != nil {
		t.Fatal(err)
	}
	want := New(wantLog)
	for cat := range want.CategoryCounts() {
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"CategoryGaps", got.CategoryGaps(cat), want.CategoryGaps(cat)},
			{"CategoryRecovery", got.CategoryRecovery(cat), want.CategoryRecovery(cat)},
			{"SortedCategoryGaps", got.SortedCategoryGaps(cat), want.SortedCategoryGaps(cat)},
			{"SortedCategoryRecovery", got.SortedCategoryRecovery(cat), want.SortedCategoryRecovery(cat)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s[%s] differs from the batch build", c.name, cat)
			}
		}
	}
}
