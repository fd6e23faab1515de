package dist

import (
	"math/rand"
	"reflect"
	"testing"
)

func batchSamples(t *testing.T) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	w, err := NewWeibull(0.9, 20)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLogNormal(2.5, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]float64, 8)
	for i := range samples {
		xs := make([]float64, 150+10*i)
		for j := range xs {
			if i%2 == 0 {
				xs[j] = w.Sample(rng)
			} else {
				xs[j] = ln.Sample(rng)
			}
		}
		samples[i] = xs
	}
	return samples
}

func TestFitAllManyMatchesSequential(t *testing.T) {
	samples := batchSamples(t)
	for _, width := range []int{1, 0, 4} {
		got := FitAllMany(samples, width)
		if len(got) != len(samples) {
			t.Fatalf("width %d: got %d results, want %d", width, len(got), len(samples))
		}
		for i, xs := range samples {
			want, wantErr := FitAll(xs)
			if (wantErr == nil) != (got[i].Err == nil) {
				t.Fatalf("width %d sample %d: err %v vs sequential %v", width, i, got[i].Err, wantErr)
			}
			if !reflect.DeepEqual(want, got[i].Fits) {
				t.Errorf("width %d sample %d: fits diverged from sequential", width, i)
			}
		}
	}
}

func TestFitAllManyRecordsPerSampleFailures(t *testing.T) {
	samples := [][]float64{{1, 2, 3, 4, 5}, nil, {2, 3, 4, 5, 6}}
	got := FitAllMany(samples, 2)
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("good samples failed: %v / %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Fatal("empty sample should have recorded a fit error")
	}
}
