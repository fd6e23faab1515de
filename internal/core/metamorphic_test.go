package core

import (
	"math"
	"testing"

	"repro/internal/failures"
	"repro/internal/testutil"
)

// TestStudyInvariantUnderPermutation is the metamorphic guarantee that no
// analysis depends on record presentation order: a study of a log rebuilt
// from shuffled records must be deeply identical to the original.
func TestStudyInvariantUnderPermutation(t *testing.T) {
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		log := testutil.MustGenerate(t, sys, 7)
		base, err := NewStudy(log)
		if err != nil {
			t.Fatal(err)
		}
		for _, shuffleSeed := range []int64{1, 2, 3} {
			permuted, err := NewStudy(testutil.Permuted(t, log, shuffleSeed))
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireDeepEqual(t, base, permuted, "study after permutation")
		}
	}
}

// TestCompareInvariantUnderPermutation extends the relation to the
// cross-generation comparison.
func TestCompareInvariantUnderPermutation(t *testing.T) {
	t2 := testutil.MustGenerate(t, failures.Tsubame2, 7)
	t3 := testutil.MustGenerate(t, failures.Tsubame3, 7)
	base, err := Compare(t2, t3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := Compare(testutil.Permuted(t, t2, 11), testutil.Permuted(t, t3, 13), Options{})
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireDeepEqual(t, base, permuted, "comparison after permutation")
}

// TestTTRSignificanceInvariantUnderScaling is the metamorphic relation of
// a rank test: a strictly increasing map of the data changes no rank, so
// doubling every recovery time (which keeps every tie) must leave each
// row's category, count, p-value and position bit-identical, while both
// means double.
func TestTTRSignificanceInvariantUnderScaling(t *testing.T) {
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		log := testutil.MustGenerate(t, sys, 7)
		records := log.Records()
		for i := range records {
			records[i].Recovery *= 2
		}
		doubled, err := failures.NewLog(sys, records)
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewStudy(log)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := NewStudy(doubled)
		if err != nil {
			t.Fatal(err)
		}
		want, got := base.TTRSignificance, scaled.TTRSignificance
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%v: %d rows after doubling, %d before", sys, len(got), len(want))
		}
		doubledMean := func(got, base float64) bool {
			return math.Abs(got-2*base) <= 1e-12*2*base
		}
		for i, w := range want {
			g := got[i]
			if g.Category != w.Category || g.N != w.N || math.Float64bits(g.P) != math.Float64bits(w.P) {
				t.Errorf("%v row %d: %s n=%d p=%v after doubling, %s n=%d p=%v before",
					sys, i, g.Category, g.N, g.P, w.Category, w.N, w.P)
			}
			if !doubledMean(g.MeanHours, w.MeanHours) || !doubledMean(g.RestMeanHours, w.RestMeanHours) {
				t.Errorf("%v row %d: means %v/%v after doubling, %v/%v before",
					sys, i, g.MeanHours, g.RestMeanHours, w.MeanHours, w.RestMeanHours)
			}
		}
	}
}
