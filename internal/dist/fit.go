package dist

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// FitExponential returns the maximum-likelihood exponential fit (the sample
// mean). Non-positive observations are rejected.
func FitExponential(xs []float64) (Exponential, error) {
	mean, _, err := positiveMeanLogMean(xs)
	if err != nil {
		return Exponential{}, err
	}
	return NewExponential(mean)
}

// FitLogNormal returns the maximum-likelihood log-normal fit: mu and sigma
// are the mean and standard deviation of the log observations.
func FitLogNormal(xs []float64) (LogNormal, error) {
	if len(xs) < 2 {
		return LogNormal{}, fmt.Errorf("dist: lognormal fit needs at least 2 observations, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if !(x > 0) {
			return LogNormal{}, fmt.Errorf("dist: lognormal fit requires positive observations, got %v", x)
		}
		logs[i] = math.Log(x)
	}
	var mu float64
	for _, l := range logs {
		mu += l
	}
	mu /= float64(len(logs))
	var ss float64
	for _, l := range logs {
		d := l - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(logs)-1))
	if sigma == 0 {
		return LogNormal{}, fmt.Errorf("dist: lognormal fit is degenerate (all observations equal)")
	}
	return NewLogNormal(mu, sigma)
}

// The Weibull shape search's bracket. A root of the shape equation above
// weibullMaxShape is an error. None lies below weibullMinShape: g(k) <=
// k*r^2/4 - 1/k for a sample whose logs span r, and float64 spans r <
// 1455, so every root exceeds 2/r > 1.37e-3.
const (
	weibullMinShape = 1e-3
	weibullMaxShape = 1024
)

// FitWeibull returns the maximum-likelihood Weibull fit. The shape k is
// the root of the profile-likelihood equation
//
//	g(k) = S1/S0 - 1/k - mean(ln x) = 0,  Sj = sum(x^k (ln x)^j),
//
// which increases with k. FitWeibull solves it by Newton's method, with
// g'(k) = S2/S0 - (S1/S0)^2 + 1/k^2 taken from the same pass over the
// sample, from Menon's moment estimate pi/(sqrt(6)*sd(ln x)). A bracket
// on [1e-3, 1024] safeguards every step: a step that leaves the bracket
// bisects it instead, once g(1024) has been evaluated, and probes 1024
// before that. The sums run over d = ln x - max ln x, so every term
// exp(k*d) lies in (0, 1] and no shape overflows them or underflows them
// all. The scale is lambda = exp(max ln x + ln(S0/n)/k), with S0 over the
// same shifted terms. A fit takes 4 to 16 passes of exp over the sample
// (5 on the inter-arrival gaps of a failure log's categories).
//
// The shape agrees with a bisection of the same equation to within its
// stopping width 1e-10*(1+k). A sample whose root lies above 1024, such
// as one with every observation equal, is an error.
func FitWeibull(xs []float64) (Weibull, error) {
	if len(xs) < 2 {
		return Weibull{}, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	d := make([]float64, len(xs))
	maxLog := math.Inf(-1)
	for i, x := range xs {
		if !(x > 0) {
			return Weibull{}, fmt.Errorf("dist: weibull fit requires positive observations, got %v", x)
		}
		if math.IsInf(x, 1) {
			return Weibull{}, fmt.Errorf("dist: weibull fit requires finite observations, got %v", x)
		}
		d[i] = math.Log(x)
		maxLog = max(maxLog, d[i])
	}
	n := float64(len(xs))
	var meanD float64
	for i := range d {
		d[i] -= maxLog
		meanD += d[i]
	}
	meanD /= n
	var ss float64
	for _, di := range d {
		ss += (di - meanD) * (di - meanD)
	}
	s := weibullShape{d: d, meanD: meanD}

	// g(lo) < 0 holds from the start (see weibullMinShape); g(hi) >= 0
	// only once hiSeen.
	lo, hi := weibullMinShape, float64(weibullMaxShape)
	hiSeen := false
	// Menon's moment estimate: sd(ln x) = pi/(k*sqrt(6)).
	k := min(max(math.Pi/math.Sqrt(6*ss/n), lo), hi)
	for i := 0; i < 200; i++ {
		g, dg := s.eval(k)
		if g < 0 {
			if k == weibullMaxShape {
				return Weibull{}, fmt.Errorf("dist: weibull shape did not bracket within (0, %g]", float64(weibullMaxShape))
			}
			lo = k
		} else {
			hi, hiSeen = k, true
		}
		next := k - g/dg
		if !(next > lo && next < hi) {
			// Leaving the bracket: probe its top, or bisect once the
			// top is known to lie above the root.
			next = hi
			if hiSeen {
				next = (lo + hi) / 2
			}
		}
		done := math.Abs(next-k) <= 1e-11*(1+k) || hi-lo <= 1e-11*(1+hi)
		k = next
		if done {
			break
		}
	}

	var s0 float64
	for _, di := range d {
		s0 += math.Exp(k * di)
	}
	return NewWeibull(k, math.Exp(maxLog+math.Log(s0/n)/k))
}

// weibullShape is the shape equation over a sample's shifted logs d =
// ln x - max ln x, with meanD their mean.
type weibullShape struct {
	d     []float64
	meanD float64
}

// eval returns g(k) and g'(k) from one pass: with t = exp(k*d), the
// weighted mean and variance of d under the weights t.
func (s weibullShape) eval(k float64) (g, dg float64) {
	var s0, s1, s2 float64
	for _, di := range s.d {
		t := math.Exp(k * di)
		s0 += t
		s1 += t * di
		s2 += t * di * di
	}
	m := s1 / s0
	return m - 1/k - s.meanD, max(s2/s0-m*m, 0) + 1/(k*k)
}

// Fit pairs a fitted distribution with its goodness of fit.
type Fit struct {
	Name string
	Dist Distribution
	KS   float64 // Kolmogorov-Smirnov statistic against the sample
	// AIC is the Akaike information criterion 2k - 2 ln L (lower is
	// better); it complements KS when the families have different
	// parameter counts.
	AIC float64
}

// fitSortCount counts every sample sort the fitting path performs. The
// single-sort regression test reads it through export_test.go: FitAll on
// any sample must increment it exactly once.
var fitSortCount atomic.Int64

// FitAll fits the exponential, Weibull, and log-normal families to xs and
// returns the fits sorted by ascending KS statistic (best first). Families
// that fail to fit are omitted; an error is returned only when no family
// fits.
//
// The sample is cloned and sorted exactly once, and every family's KS
// statistic reads the shared sorted buffer; the log-likelihood
// accumulates in xs order.
func FitAll(xs []float64) ([]Fit, error) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	fitSortCount.Add(1)

	var families []family
	if e, err := FitExponential(xs); err == nil {
		logMean := math.Log(e.MeanVal)
		families = append(families, family{"exponential", e, 1, func(x float64) float64 {
			return -logMean - x/e.MeanVal
		}})
	}
	if w, err := FitWeibull(xs); err == nil {
		logK, logL := math.Log(w.K), math.Log(w.Lambda)
		families = append(families, family{"weibull", w, 2, func(x float64) float64 {
			z := x / w.Lambda
			return logK - logL + (w.K-1)*(math.Log(x)-logL) - math.Pow(z, w.K)
		}})
	}
	if l, err := FitLogNormal(xs); err == nil {
		c := -0.5*math.Log(2*math.Pi) - math.Log(l.Sigma)
		families = append(families, family{"lognormal", l, 2, func(x float64) float64 {
			z := (math.Log(x) - l.Mu) / l.Sigma
			return c - math.Log(x) - z*z/2
		}})
	}
	if len(families) == 0 {
		return nil, fmt.Errorf("dist: no distribution family fits the sample (n=%d)", len(xs))
	}
	fits := make([]Fit, len(families))
	for i, fam := range families {
		var ll float64
		for _, x := range xs {
			ll += fam.ll(x)
		}
		ks := ksStatisticSorted(sorted, fam.dist.CDF)
		fits[i] = Fit{Name: fam.name, Dist: fam.dist, KS: ks, AIC: 2*float64(fam.params) - 2*ll}
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].KS < fits[j].KS })
	return fits, nil
}

// family pairs a fitted distribution with its parameter count and per-
// observation log-likelihood, the inputs of FitAll's scoring pass.
type family struct {
	name   string
	dist   Distribution
	params int
	ll     func(x float64) float64
}

// FitBest returns the family with the smallest KS statistic.
func FitBest(xs []float64) (Fit, error) {
	fits, err := FitAll(xs)
	if err != nil {
		return Fit{}, err
	}
	return fits[0], nil
}

// positiveMeanLogMean validates positivity and returns the mean and mean
// log of xs.
func positiveMeanLogMean(xs []float64) (mean, meanLog float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("dist: fit needs at least 1 observation")
	}
	for _, x := range xs {
		if !(x > 0) {
			return 0, 0, fmt.Errorf("dist: fit requires positive observations, got %v", x)
		}
		mean += x
		meanLog += math.Log(x)
	}
	n := float64(len(xs))
	return mean / n, meanLog / n, nil
}

// exponentialLogLik is the exponential log-likelihood of positive xs.
// FitAll's scoring pass inlines this term-for-term; these three
// standalone forms remain the reference implementations the tests check.
func exponentialLogLik(e Exponential, xs []float64) float64 {
	logMean := math.Log(e.MeanVal)
	var ll float64
	for _, x := range xs {
		ll += -logMean - x/e.MeanVal
	}
	return ll
}

// weibullLogLik is the Weibull log-likelihood of positive xs.
func weibullLogLik(w Weibull, xs []float64) float64 {
	logK, logL := math.Log(w.K), math.Log(w.Lambda)
	var ll float64
	for _, x := range xs {
		z := x / w.Lambda
		ll += logK - logL + (w.K-1)*(math.Log(x)-logL) - math.Pow(z, w.K)
	}
	return ll
}

// logNormalLogLik is the log-normal log-likelihood of positive xs.
func logNormalLogLik(l LogNormal, xs []float64) float64 {
	c := -0.5*math.Log(2*math.Pi) - math.Log(l.Sigma)
	var ll float64
	for _, x := range xs {
		z := (math.Log(x) - l.Mu) / l.Sigma
		ll += c - math.Log(x) - z*z/2
	}
	return ll
}

// ksStatisticSorted computes the one-sample KS statistic over an already-
// sorted sample. It mirrors stats.KSOneSample minus the clone-and-sort;
// dist deliberately has no dependency on other internal packages. The
// fitting path sorts once and scores every family against the shared
// buffer — this function must never re-derive the order itself.
func ksStatisticSorted(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		d = math.Max(d, math.Max(math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f)))
	}
	return d
}
