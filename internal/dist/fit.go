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

// FitWeibull returns the maximum-likelihood Weibull fit, solving the shape
// equation g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0 by Newton
// iteration with bisection fallback, then setting the scale from the shape.
func FitWeibull(xs []float64) (Weibull, error) {
	if len(xs) < 2 {
		return Weibull{}, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	var meanLog float64
	for i, x := range xs {
		if !(x > 0) {
			return Weibull{}, fmt.Errorf("dist: weibull fit requires positive observations, got %v", x)
		}
		logs[i] = math.Log(x)
		meanLog += logs[i]
	}
	meanLog /= float64(len(xs))

	g := func(k float64) float64 {
		var sxk, sxkl float64
		for i, x := range xs {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * logs[i]
		}
		return sxkl/sxk - 1/k - meanLog
	}

	// g is increasing in k; bracket the root then bisect (robust against
	// the occasional flat region that defeats pure Newton).
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e3 {
		lo = hi
		hi *= 2
	}
	if g(hi) < 0 {
		return Weibull{}, fmt.Errorf("dist: weibull shape did not bracket within (0, %g]", hi)
	}
	for i := 0; i < 200 && hi-lo > 1e-10*(1+hi); i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2

	var sxk float64
	for _, x := range xs {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(len(xs)), 1/k)
	return NewWeibull(k, lambda)
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
