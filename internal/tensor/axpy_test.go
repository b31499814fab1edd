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

// TestAxpyMatchesPortable holds the axpy kernels of every set the host
// runs to the portable loops bit for bit: every length through the 16-,
// 8- and 4-wide steps, the scalar steps and the masked tails, slices
// starting at every offset of a 64-byte line, c rows longer than b (the
// excess must not be touched), zero and special scale factors, and
// denormal, infinite and NaN elements.
func TestAxpyMatchesPortable(t *testing.T) {
	for _, set := range kernelSets {
		t.Run(set.name, func(t *testing.T) { checkAxpy(t, set) })
	}
}

func checkAxpy(t *testing.T, set gemmKernels) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	scales := [][2]float64{{1.5, -0.75}, {0, 2}, {3, 0}, {0, 0}, {math.Copysign(0, -1), 1},
		{5e-324, 1e300}, {math.Inf(1), -1}, {math.NaN(), 1}}
	rng := rand.New(rand.NewSource(3))
	const pad = 3 // extra elements each c row carries beyond b
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
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
				set.axpy2(c0, c1, b, v[0], v[1])
				set.axpy1(gotOne, b, v[0])
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

// TestDotQuadsMatchesPortable holds the dot kernels (two and four rows of
// a) of every set the host runs to the portable loop bit for bit: every
// length 0–40 through the four-wide steps and the one-to-three-p tail,
// one to five column quads (whole octets and a last single quad), rows of
// b further apart than their length, slices starting at every offset of a
// 64-byte line, c rows longer than the quads (the excess must not be
// touched), and denormal, infinite and NaN elements in a and b.
func TestDotQuadsMatchesPortable(t *testing.T) {
	for _, set := range kernelSets {
		t.Run(set.name, func(t *testing.T) { checkDotQuads(t, set) })
	}
}

func checkDotQuads(t *testing.T, set gemmKernels) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(4))
	fill := func(s []float64, special int) {
		for i := range s {
			s[i] = rng.NormFloat64()
			if special > 0 && rng.Intn(special) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for l := 0; l <= 40; l++ {
		for quads := 1; quads <= 5; quads++ {
			for off := 0; off < 8; off++ {
				for _, special := range []int{0, 5} {
					ldb := l + off%3
					nc := 4*quads + off%3 // columns past the last quad stay as they are
					a0 := make([]float64, off+l)[off:]
					a1 := make([]float64, l+1)[1:]
					b := make([]float64, off+4*quads*ldb)[off:]
					c0 := make([]float64, off+nc)[off:]
					c1 := make([]float64, nc+2)[2:]
					fill(a0, special)
					fill(a1, special)
					fill(b, special)
					fill(c0, 0)
					fill(c1, 0)
					// dotQuads4 takes a second pair of rows: a1, a0 into c1's
					// and c0's copies.
					c2, c3 := append(make([]float64, 5), c1...)[5:], append(make([]float64, 1), c0...)[1:]
					want0, want1 := append([]float64(nil), c0...), append([]float64(nil), c1...)
					dotQuadsGo(want0, want1, a0, a1, b, ldb)
					want2, want3 := append([]float64(nil), c2...), append([]float64(nil), c3...)
					dotQuadsGo(want2, want3, a1, a0, b, ldb)
					got0, got1 := append([]float64(nil), c0...), append([]float64(nil), c1...)
					set.dotQuads(got0, got1, a0, a1, b, ldb)
					set.dotQuads4(c0, c1, c2, c3, a0, a1, a1, a0, b, ldb)
					for i := range want0 {
						if !sameFloat(got0[i], want0[i]) || !sameFloat(got1[i], want1[i]) {
							t.Fatalf("dotQuads l=%d quads=%d off=%d special=%d column %d: got (%v, %v), want (%v, %v)",
								l, quads, off, special, i, got0[i], got1[i], want0[i], want1[i])
						}
						if !sameFloat(c0[i], want0[i]) || !sameFloat(c1[i], want1[i]) ||
							!sameFloat(c2[i], want2[i]) || !sameFloat(c3[i], want3[i]) {
							t.Fatalf("dotQuads4 l=%d quads=%d off=%d special=%d column %d: got (%v, %v, %v, %v), want (%v, %v, %v, %v)",
								l, quads, off, special, i, c0[i], c1[i], c2[i], c3[i], want0[i], want1[i], want2[i], want3[i])
						}
					}
				}
			}
		}
	}
}
