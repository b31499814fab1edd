package tensor

//go:noescape
func axpy2AVX2(c0, c1, b []float64, v0, v1 float64)

//go:noescape
func axpy1AVX2(c, b []float64, v float64)

// cpuFeatures reports whether the CPU and the OS support AVX2 and FMA.
func cpuFeatures() (avx2, fma bool)

func init() {
	avx2, fma := cpuFeatures()
	if avx2 {
		axpy2, axpy1 = axpy2AVX2, axpy1AVX2
	}
	if avx2 && fma {
		expVector, expHasKernel = true, true
	}
}
