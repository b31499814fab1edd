package tensor

//go:noescape
func axpy2AVX2(c0, c1, b []float64, v0, v1 float64)

//go:noescape
func axpy1AVX2(c, b []float64, v float64)

func cpuHasAVX2() bool

func init() {
	if cpuHasAVX2() {
		axpy2, axpy1 = axpy2AVX2, axpy1AVX2
	}
}
