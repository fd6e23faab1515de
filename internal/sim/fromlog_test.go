package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/synth"
)

// sequentialProcesses is ProcessesFromLog's category loop as one plain
// pass in category-name order: the reference the pool-dispatched fits
// must reproduce, processes and first error alike.
func sequentialProcesses(samples []failures.CategorySample, minCount int, fit func([]float64) (dist.Fit, error)) ([]FailureProcess, error) {
	var procs []FailureProcess
	for _, cs := range samples {
		if cs.Count < minCount {
			continue
		}
		cat := cs.Category
		gaps := positiveOnly(cs.Gaps)
		if len(gaps) < 2 {
			continue
		}
		f, err := fit(gaps)
		if err != nil {
			return nil, fmt.Errorf("sim: fitting inter-arrivals for %s: %w", cat, err)
		}
		repairs := positiveOnly(cs.Recovery)
		if len(repairs) == 0 {
			continue
		}
		repair, err := dist.NewEmpirical(repairs, true)
		if err != nil {
			return nil, fmt.Errorf("sim: repair model for %s: %w", cat, err)
		}
		scope := ScopeNode
		if cat == failures.CatRack {
			scope = ScopeRack
		}
		procs = append(procs, FailureProcess{
			Category:     cat,
			Interarrival: f.Dist,
			Repair:       repair,
			Scope:        scope,
			Involvement:  involvementPMF(cs.Involvement),
		})
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("sim: no category has %d+ records with positive gaps", minCount)
	}
	return procs, nil
}

// errPlanted is the failure a planted category's fitter returns.
var errPlanted = errors.New("planted fit failure")

// plantedFitter fails on the gaps of samples[i] for every i in failOn
// and fits every other sample with dist.FitBest. The fitter receives the
// category's gaps filtered in place, so a sample is recognized by the
// address of its first gap.
func plantedFitter(samples []failures.CategorySample, failOn ...int) func([]float64) (dist.Fit, error) {
	return func(xs []float64) (dist.Fit, error) {
		for _, i := range failOn {
			if &xs[0] == &samples[i].Gaps[0] {
				return dist.Fit{}, errPlanted
			}
		}
		return dist.FitBest(xs)
	}
}

// TestProcessesFromLogMatchesSequentialLoop compares the largest-first
// pool dispatch with the name-ordered loop on both systems' logs at
// several thresholds, then plants failing categories: the returned error
// must be the first one in name order even when a larger category, whose
// fit the pool starts earlier, also fails.
func TestProcessesFromLogMatchesSequentialLoop(t *testing.T) {
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		profile, err := synth.ProfileFor(sys)
		if err != nil {
			t.Fatal(err)
		}
		log, err := synth.Generate(profile, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, minCount := range []int{3, 10, 50, 1 << 30} {
			want, werr := sequentialProcesses(log.CategorySamples(), minCount, dist.FitBest)
			got, gerr := ProcessesFromLog(log, minCount)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s minCount %d: error %v, sequential %v", sys, minCount, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s minCount %d: processes differ from the sequential loop", sys, minCount)
			}
		}

		// Plant failures on the largest category and on the first one
		// by name that is fitted; the name-ordered error must win.
		samples := log.CategorySamples()
		first, largest := -1, -1
		for i, cs := range samples {
			if cs.Count < 10 {
				continue
			}
			if first < 0 {
				first = i
			}
			if largest < 0 || cs.Count > samples[largest].Count {
				largest = i
			}
		}
		if first == largest {
			t.Fatalf("%s: the first fitted category is also the largest", sys)
		}
		seq := log.CategorySamples()
		_, werr := sequentialProcesses(seq, 10, plantedFitter(seq, first, largest))
		_, gerr := fitProcesses(samples, 10, plantedFitter(samples, first, largest))
		if !errors.Is(gerr, errPlanted) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s planted: error %v, sequential %v", sys, gerr, werr)
		}
		want := fmt.Sprintf("sim: fitting inter-arrivals for %s: %v", samples[first].Category, errPlanted)
		if gerr.Error() != want {
			t.Fatalf("%s planted: error %q, want %q", sys, gerr, want)
		}
	}
}
