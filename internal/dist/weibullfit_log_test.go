package dist_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/synth"
)

// TestFitWeibullMatchesBisectionOnCategoryGaps runs the Newton-versus-
// bisection comparison on the positive inter-arrival gaps of every
// category of the what-if benchmark's input: the Tsubame-3 profile scaled
// 296 times (about 100k records), seed 1. Shapes must agree to the
// bisection's stopping width and scales to 1e-8 relative.
func TestFitWeibullMatchesBisectionOnCategoryGaps(t *testing.T) {
	p := synth.Tsubame3Profile()
	const factor = 296
	for i := range p.Categories {
		p.Categories[i].Count *= factor
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= factor
	}
	p.NodeCount *= factor
	p.SoftwareOnMultiNodes *= factor
	log, err := synth.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := log.CategorySamples()
	if len(samples) != 16 {
		t.Fatalf("%d categories, want 16", len(samples))
	}
	for _, cs := range samples {
		var gaps []float64
		for _, g := range cs.Gaps {
			if g > 0 {
				gaps = append(gaps, g)
			}
		}
		if msg := dist.WeibullMismatch(gaps, true); msg != "" {
			t.Errorf("%s (%d gaps): %s", cs.Category, len(gaps), msg)
		}
	}
}
