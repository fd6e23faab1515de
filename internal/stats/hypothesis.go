package stats

import (
	"math"
	"sort"
)

// MannWhitneyResult carries the two-sample rank-sum test outcome.
type MannWhitneyResult struct {
	// U is the Mann-Whitney U statistic of the first sample.
	U float64
	// Z is the normal approximation z-score (tie-corrected).
	Z float64
	// P is the two-sided asymptotic p-value.
	P float64
}

// MannWhitney performs the two-sided Mann-Whitney U test that the two
// samples come from the same distribution, using the normal approximation
// with tie correction (appropriate at the sample sizes of the per-category
// TTR comparisons). It returns ErrEmpty when either sample is empty.
func MannWhitney(xs, ys []float64) (MannWhitneyResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return MannWhitneyResult{}, ErrEmpty
	}
	combined := make([]float64, 0, len(xs)+len(ys))
	combined = append(combined, xs...)
	combined = append(combined, ys...)
	ranks, tieSum := midRanks(combined)

	var r1 float64
	for i := range xs {
		r1 += ranks[i]
	}
	return mannWhitneyNormal(r1, float64(len(xs)), float64(len(ys)), tieSum), nil
}

// MannWhitneyOneVsRest runs the MannWhitney test of each group against
// the rest of a pooled sample, ranking the pool once instead of once per
// group. pool is the whole sample in ascending order; each group is an
// ascending sub-multiset of it, tested against pool minus the group.
// Because a group and its rest always make up the pool, a value's
// mid-rank and the tie sum are the same for every group, so one merge
// walk of the group against the pool yields its rank sum. Each result is
// bit-identical to MannWhitney(group, rest): the tie groups are visited
// in the same ascending order, and a rank sum is a sum of half-integers,
// exact in float64 (so independent of summation order) while
// len(pool)*(len(pool)+1) stays below 2^53.
//
// It returns ErrEmpty when a group or its rest is empty, and ErrMismatch
// when a group is not an ascending sub-multiset of the pool.
func MannWhitneyOneVsRest(pool []float64, groups [][]float64) ([]MannWhitneyResult, error) {
	n := len(pool)
	var tieSum float64
	for i := 0; i < n; {
		j := i + 1
		for j < n && pool[j] == pool[i] {
			j++
		}
		tieSum += tieTerm(j - i)
		i = j
	}
	out := make([]MannWhitneyResult, len(groups))
	for g, xs := range groups {
		if len(xs) == 0 || len(xs) == n {
			return nil, ErrEmpty
		}
		// twiceR1 is twice the rank sum: every mid-rank (lo+1+hi)/2 is a
		// half-integer, so the doubled sum is an exact integer.
		var twiceR1 int64
		lo := 0
		for i := 0; i < len(xs); {
			x := xs[i]
			c := i + 1
			for c < len(xs) && xs[c] == x {
				c++
			}
			// [lo, hi) is x's tie group in the pool.
			for lo < n && pool[lo] < x {
				lo++
			}
			hi := lo
			for hi < n && pool[hi] == x {
				hi++
			}
			if hi-lo < c-i {
				return nil, ErrMismatch
			}
			twiceR1 += int64(c-i) * int64(lo+1+hi)
			lo, i = hi, c
		}
		out[g] = mannWhitneyNormal(float64(twiceR1)/2, float64(len(xs)), float64(n-len(xs)), tieSum)
	}
	return out, nil
}

// mannWhitneyNormal is the normal approximation behind both Mann-Whitney
// entry points: U from the first sample's rank sum r1, the tie-corrected
// variance, a continuity correction toward the mean, and the two-sided
// p-value.
func mannWhitneyNormal(r1, n1, n2, tieSum float64) MannWhitneyResult {
	u1 := r1 - n1*(n1+1)/2
	nn := n1 + n2
	variance := n1 * n2 / 12 * ((nn + 1) - tieSum/(nn*(nn-1)))
	res := MannWhitneyResult{U: u1}
	if variance <= 0 {
		// All observations tied: no evidence of difference.
		res.P = 1
		return res
	}
	mean := n1 * n2 / 2
	// Continuity correction toward the mean.
	diff := u1 - mean
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(variance)
	res.P = 2 * normalSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res
}

// normalSurvival returns P(Z > z) for a standard normal.
func normalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// KendallTau returns Kendall's tau-b rank correlation of the paired
// samples, with tie correction. It complements Spearman for the small
// monthly samples of the seasonal analysis.
func KendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrEmpty
	}
	var concordant, discordant, tiesX, tiesY int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	den := math.Sqrt(float64(pairs-tiesX)) * math.Sqrt(float64(pairs-tiesY))
	if den == 0 {
		return math.NaN(), nil
	}
	return float64(concordant-discordant) / den, nil
}

// Gini returns the Gini coefficient of the non-negative values: 0 for a
// perfectly even distribution, approaching 1 as the mass concentrates on
// few holders. The spatial analyses use it to quantify how unevenly
// failures concentrate on nodes and racks.
func Gini(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cumWeighted, total float64
	for i, v := range sorted {
		if v < 0 {
			return 0, ErrMismatch
		}
		cumWeighted += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0, nil
	}
	n := float64(len(sorted))
	return (2*cumWeighted)/(n*total) - (n+1)/n, nil
}

// LorenzPoint is one point of a Lorenz curve: the poorest PopShare of
// holders own MassShare of the mass.
type LorenzPoint struct {
	PopShare  float64
	MassShare float64
}

// Lorenz returns the Lorenz curve of the non-negative values, one point
// per holder plus the origin.
func Lorenz(values []float64) ([]LorenzPoint, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var total float64
	for _, v := range sorted {
		if v < 0 {
			return nil, ErrMismatch
		}
		total += v
	}
	curve := make([]LorenzPoint, 0, len(sorted)+1)
	curve = append(curve, LorenzPoint{})
	var running float64
	n := float64(len(sorted))
	for i, v := range sorted {
		running += v
		mass := 0.0
		if total > 0 {
			mass = running / total
		}
		curve = append(curve, LorenzPoint{PopShare: float64(i+1) / n, MassShare: mass})
	}
	return curve, nil
}

// MannKendallResult is the non-parametric trend test outcome for a time
// series.
type MannKendallResult struct {
	// S is the Mann-Kendall statistic: sum of pairwise sign comparisons.
	S int
	// Z is the variance-normalized score (tie-corrected, with continuity
	// correction).
	Z float64
	// P is the two-sided asymptotic p-value; small values indicate a
	// monotone trend.
	P float64
}

// MannKendall tests a series for monotone trend. The rolling-MTBF
// analysis uses it to decide whether within-generation reliability drift
// is statistically real.
func MannKendall(series []float64) (MannKendallResult, error) {
	n := len(series)
	if n < 3 {
		return MannKendallResult{}, ErrEmpty
	}
	var s int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case series[j] > series[i]:
				s++
			case series[j] < series[i]:
				s--
			}
		}
	}
	// Tie-corrected variance.
	counts := make(map[float64]int, n)
	for _, x := range series {
		counts[x]++
	}
	nf := float64(n)
	variance := nf * (nf - 1) * (2*nf + 5) / 18
	for _, t := range counts {
		if t > 1 {
			tf := float64(t)
			variance -= tf * (tf - 1) * (2*tf + 5) / 18
		}
	}
	res := MannKendallResult{S: s}
	if variance <= 0 {
		res.P = 1
		return res, nil
	}
	switch {
	case s > 0:
		res.Z = (float64(s) - 1) / math.Sqrt(variance)
	case s < 0:
		res.Z = (float64(s) + 1) / math.Sqrt(variance)
	}
	res.P = 2 * normalSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}
