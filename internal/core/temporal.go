package core

import (
	"time"

	"repro/internal/index"
	"repro/internal/stats"
)

// MultiGPUTemporalResult quantifies the temporal clustering of
// simultaneous multi-GPU failures (RQ4, Figure 8): whether a failure that
// took down several GPUs on one node is likely to be followed by another
// such failure soon.
type MultiGPUTemporalResult struct {
	// MultiEvents is the number of failures involving >= 2 GPUs.
	MultiEvents int
	// MedianGapHours is the median gap between consecutive multi-GPU
	// failures.
	MedianGapHours float64
	// ExpectedGapHours is the gap multi-GPU failures would show if they
	// were spread evenly over the multi-GPU failure window.
	ExpectedGapHours float64
	// ClusteringScore is ExpectedGapHours / MedianGapHours: 1 means no
	// clustering, above 1 means multi-GPU failures bunch together in time.
	ClusteringScore float64
	// WithinWindowPercent is the share of multi-GPU failures whose nearest
	// multi-GPU neighbour falls within WindowHours.
	WithinWindowPercent float64
	WindowHours         float64
	// Gaps holds the consecutive multi-GPU gap sample in hours.
	Gaps []float64
}

// MultiGPUTemporal analyzes the clustering of multi-GPU failures using the
// given proximity window (hours).
func MultiGPUTemporal(ix *index.View, windowHours float64) (*MultiGPUTemporalResult, error) {
	var times []time.Time
	recs := ix.Records()
	for i := range recs {
		r := &recs[i]
		if r.MultiGPU() {
			times = append(times, r.Time)
		}
	}
	if len(times) < 2 {
		return nil, ErrTooFewRecords
	}
	gaps := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps[i-1] = times[i].Sub(times[i-1]).Hours()
	}
	span := times[len(times)-1].Sub(times[0]).Hours()
	expected := span / float64(len(gaps))
	median := stats.Median(gaps)

	within := 0
	for i := range times {
		near := false
		if i > 0 && times[i].Sub(times[i-1]).Hours() <= windowHours {
			near = true
		}
		if i+1 < len(times) && times[i+1].Sub(times[i]).Hours() <= windowHours {
			near = true
		}
		if near {
			within++
		}
	}

	score := 0.0
	if median > 0 {
		score = expected / median
	}
	return &MultiGPUTemporalResult{
		MultiEvents:         len(times),
		MedianGapHours:      median,
		ExpectedGapHours:    expected,
		ClusteringScore:     score,
		WithinWindowPercent: 100 * float64(within) / float64(len(times)),
		WindowHours:         windowHours,
		Gaps:                gaps,
	}, nil
}
