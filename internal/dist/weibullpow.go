package dist

import "math"

// powSample caches, for a positive sample, the parts of math.Pow(x, k)
// that do not depend on k: ln x and x's Frexp mantissa and exponent. The
// Weibull shape search evaluates sum(x^k) at ~40 shapes over one sample;
// math.Pow recomputes Log(x), Frexp(x) and Modf(k) on every call.
type powSample struct {
	xs   []float64
	logs []float64 // ln x, the fit's own log pass
	// frac and exp hold Frexp(x) per point; nil when the kernel does not
	// apply (math.Pow is assembly on this architecture, or some x is
	// +Inf, a math.Pow special case) and sums falls back to math.Pow.
	frac []float64
	exp  []int
}

// newPowSample builds the cache over xs (every x > 0) and logs[i] =
// math.Log(xs[i]).
func newPowSample(xs, logs []float64) powSample {
	s := powSample{xs: xs, logs: logs}
	if !powKernel {
		return s
	}
	frac := make([]float64, len(xs))
	exp := make([]int, len(xs))
	for i, x := range xs {
		if math.IsInf(x, 1) {
			return s
		}
		frac[i], exp[i] = math.Frexp(x)
	}
	s.frac, s.exp = frac, exp
	return s
}

// sums returns sum(x^k) and sum(x^k ln x), accumulated in sample order,
// with every x^k bit-identical to math.Pow(x, k).
func (s powSample) sums(k float64) (sxk, sxkl float64) {
	yi, yf, ok := powSplit(k)
	if !ok || s.frac == nil {
		for i, x := range s.xs {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * s.logs[i]
		}
		return sxk, sxkl
	}
	for i, l := range s.logs {
		xk := powParts(yi, yf, l, s.frac[i], s.exp[i])
		sxk += xk
		sxkl += xk * l
	}
	return sxk, sxkl
}

// powSplit is math.Pow's split of the exponent k into an integer part yi
// and a fraction yf in (-1/2, 1/2], folding a fraction above 1/2 into the
// next integer exactly as math.Pow does. ok is false for the k the
// kernel leaves to math.Pow: non-positive or non-finite k, the special
// cases 1/2 and 1, and integer parts too large for the int64 loop.
func powSplit(k float64) (yi int64, yf float64, ok bool) {
	if !(k > 0 && k < 1<<62) || k == 0.5 || k == 1 {
		return 0, 0, false
	}
	fi, yf := math.Modf(k)
	if yf > 0.5 {
		yf--
		fi++
	}
	return int64(fi), yf, true
}

// powParts replays math.Pow(x, y) for finite x > 0 and y = yi + yf from
// powSplit, given logx = math.Log(x) and x1, xe = math.Frexp(x): the
// fractional power Exp(yf*ln x), then repeated squaring of the mantissa
// over the bits of yi with the exponent carried separately, then Ldexp.
// Each step is the one math.Pow takes, so the result is bit-identical.
func powParts(yi int64, yf, logx, x1 float64, xe int) float64 {
	a1, ae := 1.0, 0
	if yf != 0 {
		a1 = math.Exp(yf * logx)
	}
	for i := yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// Certain overflow or underflow: Ldexp saturates.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}
