package tensor

// axpy2 and axpy1 are the inner loops of the GEMM kernels: one row of B
// scaled into two rows of C (or one, for the unpaired last row). They run
// the portable loops below unless axpy_amd64.go found AVX2 at package
// init and swapped in the assembly, which produces the same bits.
var (
	axpy2 = axpy2Go
	axpy1 = axpy1Go
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
