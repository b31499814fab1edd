package tensor

// axpy2 and axpy1 are the inner loops of the GEMM kernels: one row of B
// scaled into two rows of C (or one, for the unpaired last row); dotQuads
// is the inner loop of the a·bᵀ kernel. They run the portable loops below
// unless axpy_amd64.go found AVX2 at package init and swapped in the
// assembly, which produces the same bits.
var (
	axpy2    = axpy2Go
	axpy1    = axpy1Go
	dotQuads = dotQuadsGo
)

// axpy2Go computes c0[j] += v0·b[j] and c1[j] += v1·b[j] for every j in b.
func axpy2Go(c0, c1, b []float64, v0, v1 float64) {
	c0, c1 = c0[:len(b)], c1[:len(b)]
	for j, bv := range b {
		c0[j] += v0 * bv
		c1[j] += v1 * bv
	}
}

// axpy1Go computes c[j] += v·b[j] for every j in b.
func axpy1Go(c, b []float64, v float64) {
	c = c[:len(b)]
	for j, bv := range b {
		c[j] += v * bv
	}
}

// dotQuadsGo adds to c0[q] and c1[q], for every q < len(c0) (a multiple of
// four, at most len(c1)), the dot products of a0 and of a1 with row q of b,
// rows being ldb elements apart: each sum starts at zero and takes
// s += a·b in ascending p, a rounded product and a rounded add. Two rows
// by a column quad keep eight independent sums in registers.
func dotQuadsGo(c0, c1, a0, a1, b []float64, ldb int) {
	a1 = a1[:len(a0)]
	for q := 0; q+4 <= len(c0); q += 4 {
		b0 := b[(q+0)*ldb:][:len(a0)]
		b1 := b[(q+1)*ldb:][:len(a0)]
		b2 := b[(q+2)*ldb:][:len(a0)]
		b3 := b[(q+3)*ldb:][:len(a0)]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for p, u := range a0 {
			v := a1[p]
			s00 += u * b0[p]
			s01 += u * b1[p]
			s02 += u * b2[p]
			s03 += u * b3[p]
			s10 += v * b0[p]
			s11 += v * b1[p]
			s12 += v * b2[p]
			s13 += v * b3[p]
		}
		c0[q+0] += s00
		c0[q+1] += s01
		c0[q+2] += s02
		c0[q+3] += s03
		c1[q+0] += s10
		c1[q+1] += s11
		c1[q+2] += s12
		c1[q+3] += s13
	}
}
