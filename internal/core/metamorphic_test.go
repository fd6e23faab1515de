package core

import (
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
