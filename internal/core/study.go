package core

import (
	"context"
	"fmt"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/system"
)

// Study bundles every analysis of one system's failure log: running it on
// the Tsubame-2 and Tsubame-3 logs regenerates all data behind the paper's
// figures and tables for that system.
type Study struct {
	System   failures.System
	Records  int
	SpanDays float64

	Breakdown      []CategoryShare         // Figure 2
	SoftwareTop    []CauseShare            // Figure 3 (empty without root loci)
	NodeCounts     []NodeCountBin          // Figure 4
	MultiNodeSplit MultiNodeSplit          // RQ2 hardware/software split
	SlotShares     []SlotShare             // Figure 5
	Involvement    []InvolvementRow        // Table III
	TBF            *TBFResult              // Figure 6
	TBFPerType     []CategoryDurations     // Figure 7
	MultiGPU       *MultiGPUTemporalResult // Figure 8
	TTR            *TTRResult              // Figure 9
	TTRPerType     []CategoryDurations     // Figure 10
	Seasonal       []MonthBucket           // Figures 11 and 12
	SeasonalTests  SeasonalCorrelation     // RQ5 correlation analysis
	PEP            system.PerfErrorProportionality

	// Extensions beyond the paper's figures (best-effort: nil when the
	// log lacks the required attribution).
	Spatial  *SpatialResult     // rack/node failure concentration
	Survival *GPUSurvivalResult // per-card Kaplan-Meier survival
	// TTRSignificance holds the one-vs-rest recovery-time tests behind
	// Figure 10's "varies significantly across failure types"; nil when
	// no category has minTTRSignificance records and a nonempty rest.
	TTRSignificance []TTRSignificance
}

// Per-category thresholds and windows; the values match the paper's
// figure construction.
const (
	// minPerTypeTBF is the minimum failures a category needs for its
	// Figure 7 box.
	minPerTypeTBF = 5
	// minPerTypeTTR is the minimum failures a category needs for its
	// Figure 10 box.
	minPerTypeTTR = 2
	// multiGPUWindowHours is the proximity window of the Figure 8
	// clustering metric.
	multiGPUWindowHours = 72
	// minTTRSignificance is the minimum failures a category needs for
	// its one-vs-rest recovery-time test.
	minTTRSignificance = 10
)

// NewStudy runs the full analysis battery on one log, sequentially. It is
// Run with Parallelism 1; results are identical under any width.
func NewStudy(log *failures.Log) (*Study, error) {
	return Run(log, Options{Parallelism: 1})
}

// Comparison contrasts two generations the way the paper contrasts
// Tsubame-2 and Tsubame-3.
type Comparison struct {
	Old, New *Study
	// MTBFImprovement is new MTBF / old MTBF (the paper reports >4x).
	MTBFImprovement float64
	// MTTRRatio is new MTTR / old MTTR (the paper reports ~1: recovery
	// time has not improved).
	MTTRRatio float64
	// GPUMTBFImprovement compares per-type GPU MTBF across generations on
	// the card-incident basis (the paper reports ~10x).
	GPUMTBFImprovement float64
	// CPUMTBFImprovement compares per-type CPU MTBF (the paper reports
	// ~3x).
	CPUMTBFImprovement float64
	// PEPRatio is the performance-error-proportionality gain (the paper's
	// argument: 8x compute with 4x MTBF means useful work per
	// failure-free period grew even faster than MTBF).
	PEPRatio float64
	// TTRShapeKS is the two-sample KS distance between the recovery-time
	// distributions; small values support the paper's "the distribution
	// shape remains roughly the same" claim.
	TTRShapeKS float64
}

// Compare builds the cross-generation comparison from two logs, analyzing
// them concurrently and fanning each study's analyses out under the same
// options. Each log gets one index shared between its study phases and
// the comparison metrics. The Comparison is identical under any
// Parallelism.
func Compare(oldLog, newLog *failures.Log, opts Options) (*Comparison, error) {
	oldIx, newIx := index.New(oldLog), index.New(newLog)
	var oldStudy, newStudy *Study
	err := parallel.Do(context.Background(), opts.Parallelism,
		func(context.Context) error {
			var err error
			if oldStudy, err = RunView(oldIx, opts); err != nil {
				return fmt.Errorf("core: old-generation study: %w", err)
			}
			return nil
		},
		func(context.Context) error {
			var err error
			if newStudy, err = RunView(newIx, opts); err != nil {
				return fmt.Errorf("core: new-generation study: %w", err)
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return compareStudies(oldIx, newIx, oldStudy, newStudy)
}

// compareStudies assembles the Comparison from two already-built studies,
// reusing each study's index so the comparison metrics read the facets
// the battery already derived.
func compareStudies(oldIx, newIx *index.View, oldStudy, newStudy *Study) (*Comparison, error) {
	c := &Comparison{
		Old:             oldStudy,
		New:             newStudy,
		MTBFImprovement: newStudy.TBF.MTBFHours / oldStudy.TBF.MTBFHours,
		MTTRRatio:       newStudy.TTR.MTTRHours / oldStudy.TTR.MTTRHours,
		PEPRatio:        oldStudy.PEP.Ratio(newStudy.PEP),
	}
	if oldGPU, ok := GPUCardIncidentMTBF(oldIx); ok {
		if newGPU, ok := GPUCardIncidentMTBF(newIx); ok {
			c.GPUMTBFImprovement = newGPU / oldGPU
		}
	}
	if oldCPU, ok := CategoryMTBF(oldIx, failures.CatCPU); ok {
		if newCPU, ok := CategoryMTBF(newIx, failures.CatCPU); ok {
			c.CPUMTBFImprovement = newCPU / oldCPU
		}
	}
	ks, err := stats.KSTwoSample(oldIx.RecoveryHours(), newIx.RecoveryHours())
	if err != nil {
		return nil, fmt.Errorf("core: TTR shape comparison: %w", err)
	}
	c.TTRShapeKS = ks
	return c, nil
}
