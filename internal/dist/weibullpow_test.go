package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelPow evaluates x^k for one point through powSample.sums — the
// kernel where it applies, math.Pow where it does not.
func kernelPow(x, k float64) float64 {
	s := newPowSample([]float64{x}, []float64{math.Log(x)})
	xk, _ := s.sums(k)
	return xk
}

// requirePowBits fails unless the kernel reproduces math.Pow(x, k) bit
// for bit.
func requirePowBits(t *testing.T, x, k float64) {
	t.Helper()
	got, want := kernelPow(x, k), math.Pow(x, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("kernel pow(%v [%#x], %v [%#x]) = %v [%#x], math.Pow = %v [%#x]",
			x, math.Float64bits(x), k, math.Float64bits(k),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestWeibullPowMatchesMathPow sweeps the kernel against math.Pow over
// the shapes the fit visits and over the edges of math.Pow's algorithm:
// subnormal and huge x, x = 1, fractions folded above 1/2, the special
// exponents the kernel leaves to math.Pow, and exponents large enough to
// trip the overflow exit of the squaring loop.
func TestWeibullPowMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := []float64{
		1, 2, 0.5, 3, 1e-3, 1e5, 0.1, 123.456, math.Nextafter(1, 2), math.Nextafter(1, 0),
		math.SmallestNonzeroFloat64, 2.5e-310, math.MaxFloat64, math.Inf(1),
	}
	ks := []float64{
		0, 1, 0.5, 2, 1e-3, 1e3, 0.25, 0.75, 1.5, 2.5, 7.75, 38.1, 1 << 40, 1 << 62,
		math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), math.Nextafter(1, 2), 1 << 20,
		-1, -0.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324,
	}
	for _, x := range xs {
		for _, k := range ks {
			requirePowBits(t, x, k)
		}
	}
	for i := 0; i < 200_000; i++ {
		var x float64
		switch i % 4 {
		case 0: // any positive finite bit pattern, subnormals included
			x = math.Float64frombits(rng.Uint64() &^ (1 << 63))
			if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
				continue
			}
		case 1: // failure-log hours
			x = math.Exp(rng.Float64()*20 - 7)
		case 2: // hours rounded to the 360 ms trace grid
			x = math.Round(rng.ExpFloat64()*50*10000) / 10000
			if x == 0 {
				x = 1
			}
		default:
			x = float64(rng.Intn(1000) + 1)
		}
		var k float64
		switch i % 3 {
		case 0: // the bisection's shape bracket
			k = 1e-3 + rng.Float64()*1e3
		case 1: // shapes near one, where failure data lives
			k = 0.3 + rng.Float64()*3
		default: // any positive finite exponent
			k = math.Float64frombits(rng.Uint64() &^ (1 << 63))
			if math.IsNaN(k) {
				continue
			}
		}
		requirePowBits(t, x, k)
	}
}

// FuzzWeibullPow checks the kernel against math.Pow bit for bit on
// fuzzed (x, k) pairs with x > 0: the sign bit of x is cleared and
// non-positive or NaN x skipped; k is any float64.
func FuzzWeibullPow(f *testing.F) {
	f.Add(uint64(0x3FF0000000000000), 0.5)
	f.Add(uint64(0x4024000000000000), 0.9593)
	f.Add(uint64(1), 38.5)
	f.Add(uint64(0x7FEFFFFFFFFFFFFF), 1.75)
	f.Add(uint64(0x3FB999999999999A), 1e3)
	f.Fuzz(func(t *testing.T, xbits uint64, k float64) {
		x := math.Float64frombits(xbits &^ (1 << 63))
		if !(x > 0) {
			return
		}
		requirePowBits(t, x, k)
	})
}

// fitWeibullBisectionReference is FitWeibull before the power kernel:
// the same bracket and bisection with math.Pow per point per pass. It is
// the oracle the kernel-backed fit must match bit for bit.
func fitWeibullBisectionReference(xs []float64) (Weibull, error) {
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

// TestFitWeibullMatchesBisectionReference pins the kernel-backed fit to
// the math.Pow bisection bit for bit — shape, scale and error text — on
// random Weibull samples and on the shapes real logs take: heavy ties,
// values rounded to a time grid, samples dominated by exactly 1.0 hour,
// and samples that defeat the fit.
func TestFitWeibullMatchesBisectionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples [][]float64
	for i := 0; i < 300; i++ {
		shape := 0.3 + rng.Float64()*4
		scale := math.Exp(rng.Float64()*10 - 3)
		truth, err := NewWeibull(shape, scale)
		if err != nil {
			t.Fatal(err)
		}
		xs := sampleN(truth, 2+rng.Intn(400), int64(i))
		switch i % 4 {
		case 1: // heavy ties: draw from a handful of distinct values
			for j := range xs {
				xs[j] = xs[rng.Intn(1+len(xs)/50)]
			}
		case 2: // rounded to the 360 ms trace grid (1e-4 h)
			for j := range xs {
				xs[j] = math.Max(math.Round(xs[j]*1e4)/1e4, 1e-4)
			}
		case 3: // mostly exactly one hour
			for j := range xs {
				if rng.Intn(4) != 0 {
					xs[j] = 1
				}
			}
		}
		samples = append(samples, xs)
	}
	samples = append(samples,
		[]float64{1, 1},             // degenerate: every x^k is 1
		[]float64{1, 1, 1, 2},       // one distinct value off 1
		[]float64{2.5e-310, 1, 1e5}, // subnormal observation
		[]float64{1, math.Inf(1)},   // +Inf: math.Pow special case
		[]float64{3, 3, 3, 3, 3},    // all tied, off 1
		[]float64{1, 0},             // rejected observation
		[]float64{5},                // too short
	)
	for i, xs := range samples {
		want, werr := fitWeibullBisectionReference(xs)
		got, gerr := FitWeibull(xs)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("sample %d: error %v, reference %v", i, gerr, werr)
		}
		if math.Float64bits(got.K) != math.Float64bits(want.K) ||
			math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) {
			t.Fatalf("sample %d (n=%d): fit (k=%v, lambda=%v), reference (k=%v, lambda=%v)",
				i, len(xs), got.K, got.Lambda, want.K, want.Lambda)
		}
	}
}
