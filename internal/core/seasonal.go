package core

import (
	"time"

	"repro/internal/index"
	"repro/internal/stats"
)

// MonthBucket aggregates one calendar month (across years) of a log:
// Figure 11's monthly recovery-time boxes and Figure 12's monthly failure
// counts share this type.
type MonthBucket struct {
	Month    time.Month
	Failures int
	// TTR summarizes the recovery hours of the month's failures; zero
	// value when the month has no failures.
	TTR stats.Summary
}

// MonthlySeasonality computes the per-calendar-month failure counts and
// recovery-time distributions (RQ5, Figures 11 and 12). All twelve months
// are returned in calendar order, including empty ones.
func MonthlySeasonality(ix *index.View) ([]MonthBucket, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	counts := ix.MonthlyCounts()
	sorted := ix.SortedMonthlyRecoveryHours()
	out := make([]MonthBucket, 12)
	for i := 0; i < 12; i++ {
		m := time.Month(i + 1)
		out[i] = MonthBucket{Month: m, Failures: counts[m]}
		if counts[m] > 0 {
			sum, err := stats.SummarizeSorted(sorted[m])
			if err != nil {
				return nil, err
			}
			out[i].TTR = sum
		}
	}
	return out, nil
}

// SeasonalCorrelation is the density-vs-recovery correlation test of RQ5:
// the paper finds that months with more failures do not systematically
// show longer recoveries.
type SeasonalCorrelation struct {
	// Spearman is the rank correlation between monthly failure count and
	// monthly mean recovery time across the twelve calendar months.
	Spearman float64
	// SecondHalfTTRRatio is mean TTR of July-December over January-June;
	// the paper sees an elevation (> 1) on Tsubame-2 only.
	SecondHalfTTRRatio float64
	// ChiSquareP is the p-value of a uniformity test on monthly counts;
	// small values mean the monthly density genuinely varies (Figure 12).
	ChiSquareP float64
}

// SeasonalAnalysis runs the density-versus-recovery tests over the monthly
// buckets.
func SeasonalAnalysis(ix *index.View) (SeasonalCorrelation, error) {
	buckets, err := MonthlySeasonality(ix)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	var counts []float64
	var means []float64
	var obs []int
	for _, b := range buckets {
		if b.Failures == 0 {
			continue
		}
		counts = append(counts, float64(b.Failures))
		means = append(means, b.TTR.Mean)
	}
	for _, b := range buckets {
		obs = append(obs, b.Failures)
	}
	rho, err := stats.Spearman(counts, means)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	var firstSum, firstN, secondSum, secondN float64
	for _, b := range buckets {
		if b.Failures == 0 {
			continue
		}
		total := b.TTR.Mean * float64(b.Failures)
		if b.Month <= time.June {
			firstSum += total
			firstN += float64(b.Failures)
		} else {
			secondSum += total
			secondN += float64(b.Failures)
		}
	}
	ratio := 0.0
	if firstN > 0 && secondN > 0 && firstSum > 0 {
		ratio = (secondSum / secondN) / (firstSum / firstN)
	}
	_, chiP, err := stats.ChiSquareUniform(obs)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	return SeasonalCorrelation{Spearman: rho, SecondHalfTTRRatio: ratio, ChiSquareP: chiP}, nil
}
