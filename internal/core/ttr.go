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
// category with at least minCount records, sorted by ascending p-value.
func TTRSignificanceByCategory(log *failures.Log, minCount int) ([]TTRSignificance, error) {
	return ttrSignificanceByCategory(index.New(log), minCount)
}

func ttrSignificanceByCategory(ix *index.View, minCount int) ([]TTRSignificance, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	var out []TTRSignificance
	counts := ix.CategoryCounts()
	for cat, n := range counts {
		if n < minCount {
			continue
		}
		hours := ix.CategoryRecovery(cat)
		var rest []float64
		for other := range counts {
			if other != cat {
				rest = append(rest, ix.CategoryRecovery(other)...)
			}
		}
		if len(rest) == 0 {
			continue
		}
		mw, err := stats.MannWhitney(hours, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, TTRSignificance{
			Category:      cat,
			N:             len(hours),
			MeanHours:     stats.Mean(hours),
			RestMeanHours: stats.Mean(rest),
			P:             mw.P,
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyLog
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}
