package tensor

//go:noescape
func axpy2AVX2(c0, c1, b []float64, v0, v1 float64)

//go:noescape
func axpy1AVX2(c, b []float64, v float64)

//go:noescape
func dotQuadsAsm(c0, c1, a0, a1, b []float64, ldb int)

// dotQuadsAVX2 is dotQuadsGo in assembly. The assembly reads
// len(c0)/4 quads of rows of b and trusts every bound, so they are checked
// here, once per call.
func dotQuadsAVX2(c0, c1, a0, a1, b []float64, ldb int) {
	nc, l := len(c0)&^3, len(a0)
	if nc == 0 {
		return
	}
	if l > ldb {
		panic("tensor: dotQuads rows overlap")
	}
	_, _ = c1[nc-1], a1[:l]
	if l > 0 {
		_ = b[(nc-1)*ldb+l-1]
	}
	dotQuadsAsm(c0[:nc], c1, a0, a1, b, ldb)
}

// cpuFeatures reports whether the CPU and the OS support AVX2 and FMA.
func cpuFeatures() (avx2, fma bool)

func init() {
	avx2, fma := cpuFeatures()
	if avx2 {
		axpy2, axpy1, dotQuads = axpy2AVX2, axpy1AVX2, dotQuadsAVX2
	}
	if avx2 && fma {
		expVector, expHasKernel = true, true
	}
}
