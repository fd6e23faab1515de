package dist

// SortCount exposes the fitting path's sample-sort counter to the
// single-sort regression tests.
func SortCount() int64 { return fitSortCount.Load() }

// WeibullMismatch exposes the Newton-versus-bisection comparison to the
// external tests that fit real category samples.
var WeibullMismatch = weibullMismatch
