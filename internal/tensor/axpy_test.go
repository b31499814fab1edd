package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat is bit equality, except that any NaN matches any NaN: which
// payload survives NaN + NaN depends on the operand order the compiler
// picked for the Go loop, which no kernel can promise to follow.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestAxpyMatchesPortable holds the dispatched axpy kernels (the assembly
// on an AVX2 machine) to the portable loops bit for bit: every length
// through the 8-wide, 4-wide and scalar steps, slices starting at every
// offset of a 32-byte line, c rows longer than b (the excess must not be
// touched), zero and special scale factors, and denormal, infinite and NaN
// elements.
func TestAxpyMatchesPortable(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	scales := [][2]float64{{1.5, -0.75}, {0, 2}, {3, 0}, {0, 0}, {math.Copysign(0, -1), 1},
		{5e-324, 1e300}, {math.Inf(1), -1}, {math.NaN(), 1}}
	rng := rand.New(rand.NewSource(3))
	const pad = 3 // extra elements each c row carries beyond b
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, v := range scales {
				b := make([]float64, off+n)[off:]
				c0 := make([]float64, off+n+pad)[off:]
				c1 := make([]float64, off+n+pad+1)[off+1:]
				for i := range c0 {
					c0[i], c1[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				for i := range b {
					b[i] = rng.NormFloat64()
					// Specials land in b and in c, alone and together.
					if rng.Intn(4) == 0 {
						b[i] = specials[rng.Intn(len(specials))]
					}
					if rng.Intn(6) == 0 {
						c0[i] = specials[rng.Intn(len(specials))]
						c1[i] = specials[rng.Intn(len(specials))]
					}
				}
				want0, want1 := append([]float64(nil), c0...), append([]float64(nil), c1...)
				wantOne := append([]float64(nil), c0...)
				gotOne := append(make([]float64, off), c0...)[off:]
				axpy2Go(want0, want1, b, v[0], v[1])
				axpy1Go(wantOne, b, v[0])
				axpy2(c0, c1, b, v[0], v[1])
				axpy1(gotOne, b, v[0])
				for i := range want0 {
					if !sameFloat(c0[i], want0[i]) || !sameFloat(c1[i], want1[i]) {
						t.Fatalf("axpy2 n=%d off=%d v=%v element %d: got (%v, %v), want (%v, %v)",
							n, off, v, i, c0[i], c1[i], want0[i], want1[i])
					}
					if !sameFloat(gotOne[i], wantOne[i]) {
						t.Fatalf("axpy1 n=%d off=%d v=%v element %d: got %v, want %v",
							n, off, v[0], i, gotOne[i], wantOne[i])
					}
				}
			}
		}
	}
}
