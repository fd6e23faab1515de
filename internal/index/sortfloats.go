package index

import (
	"math"
	"sort"
)

// radixCutoff is the length at or below which sortFloats leaves the work
// to sort.Float64s: a radix sort pays a fixed 8x256-bucket histogram per
// call, which only amortizes over larger inputs. The delta builder's
// per-batch sorts stay below it.
const radixCutoff = 512

// maxRadixBits is the IEEE-754 bit pattern of +Inf. Every float64 whose
// bits compare at or below it as a uint64 is a non-negative, non-NaN
// value with its sign bit clear; everything above it is a NaN or carries
// the sign bit (negatives and -0).
const maxRadixBits = 0x7FF0000000000000

// sortFloats sorts xs ascending in place, with a result bit-identical to
// sort.Float64s(xs).
//
// Above radixCutoff it runs an LSD radix sort on the raw IEEE-754 bits,
// eight 8-bit digits from the least significant, skipping every digit
// all keys share. The argument: for float64s with the sign bit clear and
// no NaN, the exponent field sits above the mantissa and a larger
// exponent means a larger magnitude, so a < b exactly when
// Float64bits(a) < Float64bits(b); and two such values are equal exactly
// when their bits are (only ±0 are equal with different bits, and -0 has
// the sign bit set). Sorting the bits therefore orders the values as
// sort.Float64s does, and equal values are indistinguishable, so the
// order in which either sort places them cannot show. Any input with a
// sign bit or a NaN falls back to sort.Float64s, which defines NaN-first
// ordering and treats -0 == +0.
//
// scratch is the radix ping-pong buffer: when it holds at least len(xs)
// elements it is used (and overwritten), so a facet family sorting many
// series passes one buffer sized to its largest member; otherwise one is
// allocated.
func sortFloats(xs, scratch []float64) {
	n := len(xs)
	if n <= radixCutoff {
		sort.Float64s(xs)
		return
	}
	// One pass histograms all eight digits and checks the precondition.
	var counts [8][256]int
	for _, x := range xs {
		b := math.Float64bits(x)
		if b > maxRadixBits {
			sort.Float64s(xs)
			return
		}
		counts[0][byte(b)]++
		counts[1][byte(b>>8)]++
		counts[2][byte(b>>16)]++
		counts[3][byte(b>>24)]++
		counts[4][byte(b>>32)]++
		counts[5][byte(b>>40)]++
		counts[6][byte(b>>48)]++
		counts[7][byte(b>>56)]++
	}
	if len(scratch) < n {
		scratch = make([]float64, n)
	}
	src, dst := xs, scratch[:n]
	for d := range counts {
		shift := uint(8 * d)
		c := &counts[d]
		// The digit multiset is the same in every pass, so one key's digit
		// having count n means every key shares it.
		if c[byte(math.Float64bits(src[0])>>shift)] == n {
			continue
		}
		sum := 0
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, x := range src {
			k := byte(math.Float64bits(x) >> shift)
			dst[c[k]] = x
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// radixScratch returns a sortFloats scratch buffer for a family of
// series none longer than n; nil when no member is long enough to radix
// sort.
func radixScratch(n int) []float64 {
	if n <= radixCutoff {
		return nil
	}
	return make([]float64, n)
}

// sortedCopy clones and ascending-sorts a sample; nil in, nil out.
// scratch is handed to sortFloats.
func sortedCopy(xs, scratch []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]float64(nil), xs...)
	sortFloats(out, scratch)
	return out
}
