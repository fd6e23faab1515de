package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fitWeibullBisection is the reference Weibull fit, the bisection
// FitWeibull ran before its Newton solver: it brackets the root of the
// shape equation by doubling from k = 1 up to 1024 and bisects to the
// width 1e-10*(1+hi). It evaluates x^k/max(x)^k as exp(k*(ln x - ln
// max x)) rather than x^k with math.Pow, which leaves the equation's
// ratio of sums unchanged: the raw powers overflowed (or all underflowed)
// on near-constant samples away from 1 hour, and the bisection then
// returned a shape fitted to NaN sums.
func fitWeibullBisection(xs []float64) (Weibull, error) {
	if len(xs) < 2 {
		return Weibull{}, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	var meanLog float64
	logTop := math.Inf(-1)
	for i, x := range xs {
		if !(x > 0) {
			return Weibull{}, fmt.Errorf("dist: weibull fit requires positive observations, got %v", x)
		}
		if math.IsInf(x, 1) {
			return Weibull{}, fmt.Errorf("dist: weibull fit requires finite observations, got %v", x)
		}
		logs[i] = math.Log(x)
		meanLog += logs[i]
		logTop = max(logTop, logs[i])
	}
	meanLog /= float64(len(xs))

	g := func(k float64) float64 {
		var sxk, sxkl float64
		for i := range xs {
			xk := math.Exp(k * (logs[i] - logTop))
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
	scale, _ := bisectionScale(xs, k)
	return NewWeibull(k, scale)
}

// bisectionScale is the reference scale at shape k, (sum(x^k)/n)^(1/k),
// with the powers scaled by max(x)^k as in fitWeibullBisection: max(x)
// times the k-th root of the mean scaled power. Where that root
// underflows to a subnormal it keeps too few bits to compare against:
// the scale is then taken in logs and precise is false.
func bisectionScale(xs []float64, k float64) (scale float64, precise bool) {
	var top, sxk float64
	for _, x := range xs {
		top = max(top, x)
	}
	for _, x := range xs {
		sxk += math.Exp(k * (math.Log(x) - math.Log(top)))
	}
	mean := sxk / float64(len(xs))
	if root := math.Pow(mean, 1/k); root >= 0x1p-1022 {
		return top * root, true
	}
	return math.Exp(math.Log(top) + math.Log(mean)/k), false
}

// weibullMismatch compares FitWeibull with the bisection on xs and
// describes the first disagreement, or returns "". The errors must match.
// With strict set, the shapes must agree to the bisection's stopping
// width, |dk| <= 1e-10*(1+k), and the scales to 1e-8 relative. Without
// it, for samples of any magnitude and spread, the shape may also differ
// by the bisection's own rounding: its g sums raw logs, so it carries an
// error up to about 4n*eps*max|ln x|, which moves its root by that over
// g'(k). The scale must then match the reference formula at FitWeibull's
// own shape, which separates the scale computation from the shape's
// leverage on it in samples spanning hundreds of decades, wherever that
// formula keeps full precision.
func weibullMismatch(xs []float64, strict bool) string {
	want, werr := fitWeibullBisection(xs)
	got, gerr := FitWeibull(xs)
	if (gerr == nil) != (werr == nil) {
		// A root within the stopping width of the bracket's top puts the
		// sign of g(1024) in the last bits of either implementation.
		if k := max(got.K, want.K); k >= weibullMaxShape-1e-10*(1+weibullMaxShape) {
			return ""
		}
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, bisection %v", gerr, werr)
	}
	if gerr != nil {
		return ""
	}
	tol := 1e-10 * (1 + want.K)
	ref, precise := want.Lambda, true
	if !strict {
		tol += referenceShapeNoise(xs, want.K)
		ref, precise = bisectionScale(xs, got.K)
	}
	if dk := math.Abs(got.K - want.K); !(dk <= tol) {
		return fmt.Sprintf("k=%v, bisection k=%v (|dk|=%.3g, tolerance %.3g)", got.K, want.K, dk, tol)
	}
	if !precise {
		return ""
	}
	if rel := math.Abs(got.Lambda-ref) / ref; !(rel <= 1e-8) {
		return fmt.Sprintf("lambda=%v, bisection lambda=%v (relative %.3g) at k=%v", got.Lambda, ref, rel, got.K)
	}
	return ""
}

// referenceShapeNoise bounds the shape error the bisection's raw-log sums
// add at shape k: 4n*eps*max|ln x| over g'(k).
func referenceShapeNoise(xs []float64, k float64) float64 {
	logs := make([]float64, len(xs))
	top, maxAbs := math.Inf(-1), 0.0
	for i, x := range xs {
		logs[i] = math.Log(x)
		top, maxAbs = max(top, logs[i]), max(maxAbs, math.Abs(logs[i]))
	}
	var meanD float64
	for i := range logs {
		logs[i] -= top
		meanD += logs[i]
	}
	_, dg := weibullShape{d: logs, meanD: meanD / float64(len(xs))}.eval(k)
	return 4 * float64(len(xs)) * 0x1p-52 * maxAbs / dg
}

// weibullCorpus is a seeded corpus of Weibull samples: shapes log-uniform
// on [0.05, 20], scales log-uniform on [e^-3, e^7] hours, sizes log-
// uniform on [2, 50000], a quarter of them rounded to the 360 ms trace
// grid and a quarter drawn with heavy ties.
func weibullCorpus(count int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		shape := math.Exp(math.Log(0.05) + rng.Float64()*math.Log(20/0.05))
		scale := math.Exp(rng.Float64()*10 - 3)
		n := int(math.Exp(math.Log(2) + rng.Float64()*math.Log(50000/2.0)))
		truth, err := NewWeibull(shape, scale)
		if err != nil {
			panic(err)
		}
		xs := sampleN(truth, n, int64(i))
		switch i % 4 {
		case 1: // rounded to the 360 ms trace grid (1e-4 h)
			for j := range xs {
				xs[j] = math.Max(math.Round(xs[j]*1e4)/1e4, 1e-4)
			}
		case 2: // heavy ties: the first 2+n/50 draws, repeated
			d := min(len(xs), 2+len(xs)/50)
			for j := d; j < len(xs); j++ {
				xs[j] = xs[rng.Intn(d)]
			}
		}
		out = append(out, xs)
	}
	return out
}

// TestFitWeibullMatchesBisection checks the Newton fit against the
// bisection on the seeded corpus: shapes to the bisection's stopping
// width, scales to 1e-8 relative, and identical errors.
func TestFitWeibullMatchesBisection(t *testing.T) {
	count := 240
	if testing.Short() {
		count = 60
	}
	for i, xs := range weibullCorpus(count) {
		if msg := weibullMismatch(xs, true); msg != "" {
			t.Errorf("sample %d (n=%d): %s", i, len(xs), msg)
		}
	}
}

// TestFitWeibullDegenerateSamples pins the near-constant samples away
// from 1 hour on which the raw power sums of the earlier bisection
// overflowed or underflowed, so that it fitted a shape to NaN sums: an
// all-equal sample is an error at any magnitude, and so is one whose root
// lies far above 1024. A +Inf observation is an error too.
func TestFitWeibullDegenerateSamples(t *testing.T) {
	const noBracket = "dist: weibull shape did not bracket within (0, 1024]"
	for _, c := range []struct {
		xs   []float64
		want string
	}{
		{[]float64{3, 3, 3, 3, 3}, noBracket},
		{[]float64{1e300, 1e300, 1e300}, noBracket},
		{[]float64{1e-300, 1e-300}, noBracket},
		{[]float64{0.1, 0.1, 0.1}, noBracket},
		{[]float64{5, 5, 5, 5 * (1 + 1e-6), 5}, noBracket},
		{[]float64{1e5, 1e5 * (1 + 1e-9)}, noBracket},
		{[]float64{27.97478147921407, 27.969111723145215, 27.969111723145215}, noBracket},
		{[]float64{1, math.Inf(1)}, "dist: weibull fit requires finite observations, got +Inf"},
	} {
		if w, err := FitWeibull(c.xs); fmt.Sprint(err) != c.want {
			t.Errorf("%v: fit (k=%v, lambda=%v), error %v, want %q", c.xs, w.K, w.Lambda, err, c.want)
		}
		if msg := weibullMismatch(c.xs, false); msg != "" {
			t.Errorf("%v: %s", c.xs, msg)
		}
	}
}

// FuzzFitWeibull checks the Newton fit against the bisection on fuzzed
// samples: every 8 bytes are one observation's float64 bits, at most 4096
// observations. Shapes must agree to the stopping width, scales to 1e-8
// relative at the fitted shape, and errors must match. Every fit must
// return a shape inside the bracket and a scale between the smallest and
// the largest observation (it is their power mean). Samples holding a
// subnormal observation are skipped: math.Log on amd64 misreads
// subnormals (ln 3.5e-310 comes out as -709.07, not -712.5), which skews
// both fits alike and is no property of the solver.
func FuzzFitWeibull(f *testing.F) {
	encode := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(encode(1, 2))
	f.Add(encode(1, 1))
	f.Add(encode(3, 3, 3, 3))
	f.Add(encode(0.5, 12, 7.25, 31, 2.5, 0.0001, 96))
	f.Add(encode(1e-300, 1e300))
	f.Add(encode(1, math.Exp(1.0/256)))
	f.Add(encode(5))
	f.Add(encode(1, 0))
	// Found by fuzzing: a near-constant pair far from 1 hour, where the
	// bisection's raw-log sums lose the last bits of g; a sample whose
	// reference scale underflows; a subnormal pair.
	f.Add(encode(3.6455614443812115e-304, 3.659829332146666e-304))
	tiny := make([]float64, 41)
	for i := range tiny {
		tiny[i] = 1.398043286095289e-76
	}
	tiny[8] = 4.440533363917715e+304
	f.Add(encode(tiny...))
	f.Add(encode(2.61773395118493e-310, 3.541226519413e-310))
	for _, xs := range weibullCorpus(8) {
		f.Add(encode(xs[:min(len(xs), 64)]...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/8, 4096)
		xs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if xs[i] > 0 && xs[i] < 0x1p-1022 {
				return
			}
			lo, hi = min(lo, xs[i]), max(hi, xs[i])
		}
		if w, err := FitWeibull(xs); err == nil {
			if !(w.K >= weibullMinShape && w.K <= weibullMaxShape) {
				t.Fatalf("shape %v outside the bracket", w.K)
			}
			if !(w.Lambda >= lo*(1-1e-12) && w.Lambda <= hi*(1+1e-12)) {
				t.Fatalf("scale %v outside the sample's range [%v, %v]", w.Lambda, lo, hi)
			}
		}
		if msg := weibullMismatch(xs, false); msg != "" {
			t.Fatal(msg)
		}
	})
}
