package core

import (
	"repro/internal/failures"
	"repro/internal/index"
)

// InvolvementRow is one row of Table III: the number of failures that
// involved exactly GPUs cards simultaneously.
type InvolvementRow struct {
	GPUs    int
	Count   int
	Percent float64
}

// MultiGPUInvolvement computes Table III over the GPU-category failures of
// the log (RQ3): one row per possible involvement size, 1..GPUsPerNode,
// including zero rows (Tsubame-3 famously has a zero row for all four
// GPUs).
func MultiGPUInvolvement(ix *index.View) ([]InvolvementRow, error) {
	slots := failures.GPUsPerNode(ix.System())
	counts := make([]int, slots+1)
	total := 0
	recs := ix.Records()
	for i := range recs {
		r := &recs[i]
		if r.Category != failures.CatGPU || len(r.GPUs) == 0 {
			continue
		}
		k := len(r.GPUs)
		if k > slots {
			k = slots
		}
		counts[k]++
		total++
	}
	if total == 0 {
		return nil, ErrEmptyLog
	}
	out := make([]InvolvementRow, 0, slots)
	for k := 1; k <= slots; k++ {
		out = append(out, InvolvementRow{
			GPUs:    k,
			Count:   counts[k],
			Percent: 100 * float64(counts[k]) / float64(total),
		})
	}
	return out, nil
}

// MultiGPUPercent returns the share of GPU failures involving two or more
// cards.
func MultiGPUPercent(rows []InvolvementRow) float64 {
	var p float64
	for _, r := range rows {
		if r.GPUs >= 2 {
			p += r.Percent
		}
	}
	return p
}
