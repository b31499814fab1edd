package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul measures the square GEMM at the sizes the conv and dense
// layers actually produce (small head matrices up to large batched im2col
// products), writing into a preallocated destination as the training hot
// path does. 1024 is skipped under -short so the ci smoke run stays fast.
func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		if testing.Short() && size > 256 {
			continue
		}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := Randn(rng, 0, 1, size, size)
			bb := Randn(rng, 0, 1, size, size)
			dst := New(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(a, bb, dst); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(size) * float64(size) * float64(size)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkIm2ColBatch measures unrolling a full NCHW batch into the
// (C·kh·kw, N·oh·ow) matrix consumed by the convolution GEMM, each sample
// written directly into its strided slot.
func BenchmarkIm2ColBatch(b *testing.B) {
	const (
		n, c, h, w     = 16, 8, 28, 28
		kh, kw, st, pd = 3, 3, 1, 1
	)
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 0, 1, n, c, h, w)
	oh, _ := ConvOutSize(h, kh, st, pd)
	ow, _ := ConvOutSize(w, kw, st, pd)
	cols := New(c*kh*kw, n*oh*ow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Im2ColBatchInto(x, cols, kh, kw, st, pd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvWeightGrad measures the weight gradient dW = G·colsᵀ of a
// search's convolutions: 4 and 8 filters by C·3·3 columns over a 32-sample
// batch of 16×16 outputs (k = 8192), the a·bᵀ product of every training
// step.
func BenchmarkConvWeightGrad(b *testing.B) {
	for _, sz := range []gemmShape{{4, 8192, 36}, {8, 8192, 72}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.k, sz.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := Randn(rng, 0, 1, sz.m, sz.k)
			cols := Randn(rng, 0, 1, sz.n, sz.k)
			dw := New(sz.m, sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulTransBInto(g, cols, dw); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(sz.m) * float64(sz.k) * float64(sz.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
