package sim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/parallel"
)

// ProcessesFromLog fits one FailureProcess per category with at least
// minCount records: the inter-arrival model is the best parametric fit
// (exponential/Weibull/log-normal by KS distance) and the repair model is
// the smoothed empirical distribution of observed recovery times. This is
// the bridge from the paper's measurement half to its operational-
// implications half: analyze a log, then simulate policy changes against
// the fitted processes.
//
// Each category is fitted as one task on the parallel pool at the default
// width, largest category first so the longest fit starts at once. The
// processes come back in category-name order, and the error is the one
// the name-ordered sequential loop would hit first.
func ProcessesFromLog(log *failures.Log, minCount int) ([]FailureProcess, error) {
	if log.Len() == 0 {
		return nil, fmt.Errorf("sim: empty log")
	}
	if minCount < 3 {
		minCount = 3
	}
	return fitProcesses(log.CategorySamples(), minCount, dist.FitBest)
}

// fitProcesses is ProcessesFromLog over the log's category samples, with
// fit as the inter-arrival fitter.
func fitProcesses(samples []failures.CategorySample, minCount int, fit func([]float64) (dist.Fit, error)) ([]FailureProcess, error) {
	var order []int
	for i, cs := range samples {
		if cs.Count >= minCount {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return samples[order[a]].Count > samples[order[b]].Count })
	procs := make([]*FailureProcess, len(samples))
	errs := make([]error, len(samples))
	// Tasks report into their own slots and never fail the pool: a
	// failing category must not cancel one that precedes it by name.
	_ = parallel.ForEach(context.Background(), 0, order, func(_ context.Context, _ int, i int) error {
		procs[i], errs[i] = fitCategory(&samples[i], fit)
		return nil
	})
	var out []FailureProcess
	for i, p := range procs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if p != nil {
			out = append(out, *p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: no category has %d+ records with positive gaps", minCount)
	}
	return out, nil
}

// fitCategory fits one category's inter-arrival and repair models, or
// returns nil, nil when the category has too few positive gaps or no
// positive recovery time. It filters the sample's gaps and recovery
// hours in place.
func fitCategory(cs *failures.CategorySample, fitGaps func([]float64) (dist.Fit, error)) (*FailureProcess, error) {
	cat := cs.Category
	gaps := positiveOnly(cs.Gaps)
	if len(gaps) < 2 {
		return nil, nil
	}
	fit, err := fitGaps(gaps)
	if err != nil {
		return nil, fmt.Errorf("sim: fitting inter-arrivals for %s: %w", cat, err)
	}
	repairs := positiveOnly(cs.Recovery)
	if len(repairs) == 0 {
		return nil, nil
	}
	repair, err := dist.NewEmpirical(repairs, true)
	if err != nil {
		return nil, fmt.Errorf("sim: repair model for %s: %w", cat, err)
	}
	scope := ScopeNode
	if cat == failures.CatRack {
		scope = ScopeRack
	}
	return &FailureProcess{
		Category:     cat,
		Interarrival: fit.Dist,
		Repair:       repair,
		Scope:        scope,
		Involvement:  involvementPMF(cs.Involvement),
	}, nil
}

// involvementPMF normalizes a category's Table III involvement histogram
// (counts[k-1] records naming k cards); nil when the category never
// reports involved cards.
func involvementPMF(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	pmf := make([]float64, len(counts))
	for i, c := range counts {
		pmf[i] = float64(c) / float64(total)
	}
	return pmf
}

// positiveOnly filters xs to its positive values in place; xs is a
// category sample the caller owns.
func positiveOnly(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}
