package dist

import (
	"math"
	"math/rand"
	"testing"
)

// weibullSample draws a deterministic positive sample large enough that a
// stray re-sort would dominate the fitting cost.
func weibullSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		xs[i] = 72.6 * math.Pow(-math.Log(1-u), 1/0.74)
	}
	return xs
}

// TestFitAllSortsExactlyOnce is the single-sort regression gate:
// FitAll on a 100k sample must sort it exactly once, with every family's
// KS pass reading the shared sorted buffer. Before the fix each of the
// three families cloned and re-sorted the sample.
func TestFitAllSortsExactlyOnce(t *testing.T) {
	xs := weibullSample(100_000, 7)
	before := SortCount()
	fits, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("got %d families, want 3", len(fits))
	}
	if got := SortCount() - before; got != 1 {
		t.Errorf("FitAll performed %d sample sorts, want exactly 1", got)
	}
}
