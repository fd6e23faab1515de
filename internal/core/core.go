// Package core is the failure-log analysis engine: the primary
// contribution of the reproduced paper. Each analysis answers one of the
// paper's research questions over an index.View of a failure log and
// returns a typed result that the report renderers and benchmark harness
// turn into the paper's tables and figures:
//
//   - RQ1: CategoryBreakdown (Figure 2), SoftwareCauses (Figure 3)
//   - RQ2: NodeFailureCounts (Figure 4), MultiFailureNodeSplit,
//     GPUSlotDistribution (Figure 5)
//   - RQ3: MultiGPUInvolvement (Table III)
//   - RQ4: TBFAnalysis (Figure 6), TBFByCategory (Figure 7),
//     MultiGPUTemporal (Figure 8)
//   - RQ5: TTRAnalysis (Figure 9), TTRByCategory (Figure 10),
//     MonthlySeasonality (Figures 11 and 12)
//
// Run executes the full battery over one shared view, and Compare
// contrasts two systems the way the paper contrasts Tsubame-2 and
// Tsubame-3 (MTBF improvement, MTTR stagnation,
// performance-error-proportionality).
package core

import (
	"errors"
)

// ErrEmptyLog is returned by analyses that need at least one record.
var ErrEmptyLog = errors.New("core: empty failure log")

// ErrTooFewRecords is returned by analyses that need at least two records
// (anything computing inter-arrival gaps).
var ErrTooFewRecords = errors.New("core: need at least two records")
