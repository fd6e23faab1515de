package core

import (
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
)

// TTRResult summarizes the system-wide time-to-recovery distribution (RQ5,
// Figure 9).
type TTRResult struct {
	N                int
	MTTRHours        float64
	P25, Median, P75 float64
	MaxHours         float64
	CDF              *stats.ECDF
}

// TTRAnalysis computes the time-to-recovery distribution of the whole
// log. It mirrors TBFAnalysis: chronological series for the mean, shared
// sorted arena for the ECDF, quantiles, and maximum.
func TTRAnalysis(ix *index.View) (*TTRResult, error) {
	hours := ix.RecoveryHours()
	if len(hours) == 0 {
		return nil, ErrEmptyLog
	}
	sorted := ix.SortedRecoveryHours()
	cdf, err := stats.NewECDFSorted(sorted)
	if err != nil {
		return nil, err
	}
	qs := stats.QuantilesSorted(sorted, quartiles)
	return &TTRResult{
		N:         len(hours),
		MTTRHours: stats.Mean(hours),
		P25:       qs[0],
		Median:    qs[1],
		P75:       qs[2],
		MaxHours:  cdf.Max(),
		CDF:       cdf,
	}, nil
}

// TTRByCategory computes the recovery-time distribution per category for
// categories with at least minCount records, sorted by ascending mean
// recovery time (Figure 10's ordering).
func TTRByCategory(ix *index.View, minCount int) ([]CategoryDurations, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 1 {
		minCount = 1
	}
	rows := summarizeByCategory(ix, minCount, ix.SortedCategoryRecovery)
	if len(rows) == 0 {
		return nil, ErrEmptyLog
	}
	return rows, nil
}

// SpreadComparison contrasts the recovery-time spread (IQR) of hardware
// and software failures; the paper observes hardware repairs spread wider
// (RQ5, Figure 10 discussion).
type SpreadComparison struct {
	HardwareIQRHours float64
	SoftwareIQRHours float64
	HardwareMean     float64
	SoftwareMean     float64
}

// TTRSpread computes the hardware-versus-software recovery spread.
func TTRSpread(ix *index.View) (SpreadComparison, error) {
	hw := ix.SortedHardwareRecoveryHours()
	sw := ix.SortedSoftwareRecoveryHours()
	if len(hw) == 0 || len(sw) == 0 {
		return SpreadComparison{}, ErrEmptyLog
	}
	hwSum, err := stats.SummarizeSorted(hw)
	if err != nil {
		return SpreadComparison{}, err
	}
	swSum, err := stats.SummarizeSorted(sw)
	if err != nil {
		return SpreadComparison{}, err
	}
	return SpreadComparison{
		HardwareIQRHours: hwSum.IQR(),
		SoftwareIQRHours: swSum.IQR(),
		HardwareMean:     hwSum.Mean,
		SoftwareMean:     swSum.Mean,
	}, nil
}

// TTRSignificance is one category's one-vs-rest recovery-time comparison:
// the statistical form of the paper's Figure 10 observation that "the
// time to recovery distribution varies significantly across failure
// types".
type TTRSignificance struct {
	Category failures.Category
	N        int
	// MeanHours is the category's mean recovery; RestMeanHours is the
	// mean over every other record.
	MeanHours, RestMeanHours float64
	// P is the two-sided Mann-Whitney p-value of the category's recovery
	// times against the rest of the log.
	P float64
}

// TTRSignificanceByCategory runs a one-vs-rest Mann-Whitney test for each
// category with at least minCount records, sorted by ascending p-value. A
// Study carries the same rows for minCount 10 in its TTRSignificance
// field; this entry point indexes log afresh.
func TTRSignificanceByCategory(log *failures.Log, minCount int) ([]TTRSignificance, error) {
	return ttrSignificanceByCategory(index.New(log), minCount)
}

// ttrSignificanceByCategory ranks the log once: every category and its
// rest make up the whole log, so stats.MannWhitneyOneVsRest takes each
// value's mid-rank and the tie sum from the shared sorted recovery arena
// and each category's rank sum from its sorted arena.
func ttrSignificanceByCategory(ix *index.View, minCount int) ([]TTRSignificance, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	var cats []failures.Category
	var groups [][]float64
	for cat, n := range ix.CategoryCounts() {
		if n >= minCount && n < ix.Len() {
			cats = append(cats, cat)
			groups = append(groups, ix.SortedCategoryRecovery(cat))
		}
	}
	if len(cats) == 0 {
		return nil, ErrEmptyLog
	}
	tests, err := stats.MannWhitneyOneVsRest(ix.SortedRecoveryHours(), groups)
	if err != nil {
		return nil, err
	}
	restMeans := restMeanRecovery(ix, cats)
	out := make([]TTRSignificance, len(cats))
	for i, cat := range cats {
		out[i] = TTRSignificance{
			Category:      cat,
			N:             len(groups[i]),
			MeanHours:     stats.Mean(ix.CategoryRecovery(cat)),
			RestMeanHours: restMeans[i],
			P:             tests[i].P,
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// restMeanRecovery returns, for each of cats, the mean recovery of every
// record outside that category. One chronological pass feeds a Kahan sum
// per category, so each mean adds the same values in the same order as
// stats.Mean over the materialized rest would.
func restMeanRecovery(ix *index.View, cats []failures.Category) []float64 {
	slot := make(map[failures.Category]int, len(cats))
	for i, cat := range cats {
		slot[cat] = i
	}
	sum := make([]float64, len(cats))
	comp := make([]float64, len(cats))
	records := ix.Records()
	for k, h := range ix.RecoveryHours() {
		own, ok := slot[records[k].Category]
		if !ok {
			own = -1
		}
		for i := range sum {
			if i == own {
				continue
			}
			y := h - comp[i]
			t := sum[i] + y
			comp[i] = (t - sum[i]) - y
			sum[i] = t
		}
	}
	means := make([]float64, len(cats))
	for i, cat := range cats {
		means[i] = sum[i] / float64(ix.Len()-ix.CategoryCounts()[cat])
	}
	return means
}
