package tensor

import (
	"math"
	"testing"
)

// sameBits reports whether x and y have identical bit patterns, treating any
// two NaNs as equal: NaN payloads are not part of the bit-identity contract.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// axpySpecials are the values the kernel must treat exactly like the Go
// loop: signed zeros, the smallest and largest subnormals, the extremes of
// the normal range, infinities and NaN.
var axpySpecials = []float32{
	0,
	float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff),
	math.Float32frombits(0x807fffff),
	math.MaxFloat32,
	-math.MaxFloat32,
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.NaN()),
	1,
	-1,
	1e-20,
	3e38,
}

// axpyVector fills n values: mostly normals on wildly different scales, with
// a special value every few elements so each lane position of the 16-, 4-
// and 1-wide paths sees some.
func axpyVector(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = axpySpecials[rng.Intn(len(axpySpecials))]
			continue
		}
		v[i] = float32((2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(13)-6)))
	}
	return v
}

// checkAxpy runs axpy and axpyGeneric on copies of dst and compares every
// element of dst, including the elements beyond the slice the kernel was
// given, so an overrun shows as a mismatch.
func checkAxpy(t *testing.T, dst, src []float32, lo, hi int, alpha float32) {
	t.Helper()
	got := append([]float32(nil), dst...)
	want := append([]float32(nil), dst...)
	axpy(got[lo:hi], src, alpha)
	axpyGeneric(want[lo:hi], src, alpha)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("dst[%d:%d] len(src)=%d alpha=%g: element %d = %g (%#08x), want %g (%#08x)",
				lo, hi, len(src), alpha, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestAxpyBitIdenticalToGeneric(t *testing.T) {
	rng := NewRNG(7)
	lengths := []int{50257}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	alphas := append([]float32{0.5, -1.25e-3, 7e5}, axpySpecials...)
	for _, n := range lengths {
		for _, alpha := range alphas {
			// Offsets 0..3 floats move both slices off any 16-byte
			// alignment; src carries 5 extra elements the kernel must not
			// use.
			for off := 0; off < 4; off++ {
				dst := axpyVector(rng, n+off+3)
				src := axpyVector(rng, n+off+5)
				checkAxpy(t, dst, src[off:], off, off+n, alpha)
			}
		}
	}
}

func TestAxpySpecialsEveryLane(t *testing.T) {
	// Every (dst, src) pair of special values, at every position of a
	// 16-wide block, a 4-wide block and the scalar tail.
	for _, n := range []int{16, 4, 1, 21} {
		for pos := 0; pos < n; pos++ {
			for _, d := range axpySpecials {
				for _, s := range axpySpecials {
					dst := make([]float32, n)
					src := make([]float32, n)
					for i := range dst {
						dst[i], src[i] = 1.5, -2.25
					}
					dst[pos], src[pos] = d, s
					for _, alpha := range []float32{2, -0.75, float32(math.Inf(1))} {
						checkAxpy(t, dst, src, 0, n, alpha)
					}
				}
			}
		}
	}
}
