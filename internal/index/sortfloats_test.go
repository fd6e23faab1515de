package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// requireSortMatches sorts a copy of xs with sortFloats and another with
// sort.Float64s and requires the results bit-identical element-wise.
// It returns whether sortFloats wrote to the scratch buffer it was
// handed, i.e. whether any radix pass ran.
func requireSortMatches(t *testing.T, name string, xs []float64) (usedScratch bool) {
	t.Helper()
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	got := append([]float64(nil), xs...)
	sentinel := math.Float64frombits(0x7FF8DEADBEEF0001) // a NaN no input uses
	scratch := make([]float64, len(xs)+3)
	for i := range scratch {
		scratch[i] = sentinel
	}
	sortFloats(got, scratch)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (n=%d): element %d is %v (%#x), sort.Float64s has %v (%#x)",
				name, len(xs), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	// The same input without a scratch buffer must agree too.
	again := append([]float64(nil), xs...)
	sortFloats(again, nil)
	for i := range want {
		if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (n=%d, nil scratch): element %d is %v, sort.Float64s has %v", name, len(xs), i, again[i], want[i])
		}
	}
	for _, s := range scratch {
		if math.Float64bits(s) != math.Float64bits(sentinel) {
			return true
		}
	}
	return false
}

// TestSortFloatsMatchesSortFloat64s is the differential test of the
// radix kernel against the comparison sort it replaces: every case must
// come out bit-identical; valid inputs above the cutoff with more than
// one distinct value must run radix passes, and neither small inputs,
// single-valued inputs nor any fallback trigger may.
func TestSortFloatsMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	uniform := func(n int) []float64 { return gen(n, func(int) float64 { return rng.ExpFloat64() * 100 }) }
	const big = 5000

	type sortCase struct {
		name    string
		xs      []float64
		scatter bool // some radix pass must run (else none may)
	}
	cases := []sortCase{
		{"empty", nil, false},
		{"single", []float64{3.5}, false},
		{"below-cutoff", uniform(radixCutoff - 1), false},
		{"at-cutoff", uniform(radixCutoff), false},
		{"above-cutoff", uniform(radixCutoff + 1), true},
		{"large", uniform(big), true},
		{"all-equal", gen(big, func(int) float64 { return 7.25 }), false},
		{"all-zero", gen(big, func(int) float64 { return 0 }), false},
		{"recovery-grid-360ms", gen(big, func(int) float64 {
			return (time.Duration(rng.Int63n(2_000_000)) * 360 * time.Millisecond).Hours()
		}), true},
		{"heavy-ties", gen(big, func(int) float64 { return float64(rng.Intn(4)) * 0.5 }), true},
		// Keys differing in one digit only, so a single (odd) number of
		// passes runs and the result must be copied back from scratch.
		{"one-digit-varies", gen(big, func(int) float64 { return 1 + float64(rng.Intn(16))/16 }), true},
		{"three-digits-vary", gen(big, func(int) float64 { return 1 + float64(rng.Intn(1<<20))/(1<<20) }), true},
		{"gaps-with-zeros", gen(big, func(int) float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return rng.ExpFloat64()
		}), true},
		{"subnormals-and-inf", gen(big, func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
			case 1:
				return math.Inf(1)
			case 2:
				return math.MaxFloat64
			case 3:
				return 0x1p-1022 // smallest normal
			default:
				return rng.Float64()
			}
		}), true},
		{"already-sorted", func() []float64 { xs := uniform(big); sort.Float64s(xs); return xs }(), true},
		{"reversed", func() []float64 {
			xs := uniform(big)
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
			return xs
		}(), true},
	}
	withAt := func(xs []float64, i int, v float64) []float64 {
		out := append([]float64(nil), xs...)
		out[i] = v
		return out
	}
	base := uniform(big)
	cases = append(cases,
		sortCase{"fallback-negative", withAt(base, big/2, -1.5), false},
		sortCase{"fallback-negative-zero", withAt(base, big-1, math.Copysign(0, -1)), false},
		sortCase{"fallback-nan", withAt(base, 0, math.NaN()), false},
		sortCase{"fallback-neg-inf", withAt(base, 17, math.Inf(-1)), false},
	)
	for _, c := range cases {
		if used := requireSortMatches(t, c.name, c.xs); used != c.scatter {
			t.Errorf("%s (n=%d): radix pass ran = %v, want %v", c.name, len(c.xs), used, c.scatter)
		}
	}
}

// TestSortedCopyLeavesInput checks sortedCopy's contract: the input is
// untouched and nil comes back for an empty sample.
func TestSortedCopyLeavesInput(t *testing.T) {
	if sortedCopy(nil, nil) != nil || sortedCopy([]float64{}, nil) != nil {
		t.Fatal("sortedCopy of an empty sample is not nil")
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	orig := append([]float64(nil), xs...)
	sorted := sortedCopy(xs, radixScratch(len(xs)))
	if !sort.Float64sAreSorted(sorted) {
		t.Fatal("sortedCopy result is not ascending")
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("sortedCopy mutated its input at %d", i)
		}
	}
}

// FuzzSortFloats checks the radix kernel against sort.Float64s on
// fuzzed inputs. The raw bytes supply a pool of bit patterns (any
// float64, so every fallback trigger is reachable); n cycles the pool up
// to a length that can cross the cutoff, mask perturbs the low bits per
// element (0 gives heavy ties), and clearSign steers most inputs onto the
// radix path.
func FuzzSortFloats(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, uint16(600), uint64(0xFF), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(2000), uint64(0), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F}, uint16(900), uint64(3), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(513), uint64(1), false)
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, mask uint64, clearSign bool) {
		pool := make([]uint64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			pool = append(pool, binary.LittleEndian.Uint64(raw[i:]))
		}
		if len(pool) == 0 {
			return
		}
		xs := make([]float64, int(n)%4096)
		for i := range xs {
			b := pool[i%len(pool)] ^ (uint64(i) & mask)
			if clearSign {
				b &^= 1 << 63
			}
			xs[i] = math.Float64frombits(b)
		}
		requireSortMatches(t, "fuzz", xs)
	})
}
