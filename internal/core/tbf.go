package core

import (
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
)

// quartiles are the probabilities of the boxplot-style P25/Median/P75
// readouts; both TBF and TTR read all three off one sorted arena.
var quartiles = []float64{0.25, 0.50, 0.75}

// TBFResult summarizes the system-wide time-between-failures distribution
// (RQ4, Figure 6).
type TBFResult struct {
	// N is the number of inter-arrival gaps (records - 1).
	N int
	// MTBFHours is the mean gap.
	MTBFHours float64
	// P25, Median, P75 are gap quantiles in hours; the paper reads the
	// 75th percentile off Figure 6 (20 h on Tsubame-2, 93 h on Tsubame-3).
	P25, Median, P75 float64
	// CDF is the empirical gap distribution for plotting.
	CDF *stats.ECDF
}

// TBFAnalysis computes the time-between-failures distribution of the whole
// log. It reads the gap series and its sorted arena off the index: the
// mean accumulates in chronological order (bit-identical to the
// historical path), while the ECDF and all three quantiles share the
// arena's single sort.
func TBFAnalysis(ix *index.View) (*TBFResult, error) {
	gaps := ix.InterarrivalHours()
	if len(gaps) == 0 {
		return nil, ErrTooFewRecords
	}
	sorted := ix.SortedInterarrivalHours()
	cdf, err := stats.NewECDFSorted(sorted)
	if err != nil {
		return nil, err
	}
	qs := stats.QuantilesSorted(sorted, quartiles)
	return &TBFResult{
		N:         len(gaps),
		MTBFHours: stats.Mean(gaps),
		P25:       qs[0],
		Median:    qs[1],
		P75:       qs[2],
		CDF:       cdf,
	}, nil
}

// CategoryDurations pairs a failure category with a duration summary; it
// is the row type of the per-category boxplot figures (Figures 7 and 10).
type CategoryDurations struct {
	Category failures.Category
	Summary  stats.Summary
}

// TBFByCategory computes the distribution of time between two failures of
// the same category, for every category with at least minCount failures
// (the paper's Figure 7 omits sparsely populated categories). Rows are
// sorted by ascending mean, matching the figure's ordering.
func TBFByCategory(ix *index.View, minCount int) ([]CategoryDurations, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	rows := summarizeByCategory(ix, minCount, ix.SortedCategoryGaps)
	if len(rows) == 0 {
		return nil, ErrTooFewRecords
	}
	return rows, nil
}

// summarizeByCategory summarizes one sorted arena per category with at
// least minCount records, skipping degenerate (empty) arenas, and
// applies the boxplot figures' ascending-mean ordering. Categories are
// visited in name order so the result is deterministic.
func summarizeByCategory(ix *index.View, minCount int, arena func(failures.Category) []float64) []CategoryDurations {
	counts := ix.CategoryCounts()
	cats := make([]failures.Category, 0, len(counts))
	for cat, n := range counts {
		if n >= minCount {
			cats = append(cats, cat)
		}
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	var rows []CategoryDurations
	for _, cat := range cats {
		if sum, err := stats.SummarizeSorted(arena(cat)); err == nil {
			rows = append(rows, CategoryDurations{Category: cat, Summary: sum})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Summary.Mean != rows[j].Summary.Mean {
			return rows[i].Summary.Mean < rows[j].Summary.Mean
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

// CategoryMTBF returns the mean time between failures of one category in
// hours, measured over the category's sub-log. It averages the category's
// gap series with a plain running sum, replicating failures.Log.MTBFHours
// bit for bit (deliberately not stats.Mean, whose Kahan compensation can
// differ in the last ulp).
func CategoryMTBF(ix *index.View, cat failures.Category) (float64, bool) {
	gaps := ix.CategoryGaps(cat)
	if len(gaps) == 0 {
		return 0, false
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps)), true
}

// GPUCardIncidentMTBF returns the mean time between GPU card incidents:
// each failure contributes one incident per involved card, the counting
// basis that best reconciles the paper's per-type GPU MTBF numbers with
// its Table III involvement counts.
func GPUCardIncidentMTBF(ix *index.View) (float64, bool) {
	records := ix.GPURecords()
	var incidents int
	for i := range records {
		n := len(records[i].GPUs)
		if n == 0 {
			n = 1
		}
		incidents += n
	}
	if incidents < 2 || len(records) == 0 {
		return 0, false
	}
	window := records[len(records)-1].Time.Sub(records[0].Time)
	return window.Hours() / float64(incidents-1), true
}
