package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// im2colRef is the element-wise definition of the single-sample column
// matrix, independent of the row-copy fast paths under test.
func im2colRef(x *Tensor, kh, kw, stride, pad, oh, ow int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	cols := New(c*kh*kw, oh*ow)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							cols.data[((ch*kh+ky)*kw+kx)*oh*ow+oy*ow+ox] = x.At(ch, iy, ix)
						}
					}
				}
			}
		}
	}
	return cols
}

// col2imRef is the element-wise adjoint of im2colRef, accumulating in
// (ch, ky, kx, oy, ox) order.
func col2imRef(cols *Tensor, c, h, w, kh, kw, stride, pad, oh, ow int) *Tensor {
	img := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img.data[(ch*h+iy)*w+ix] += cols.data[((ch*kh+ky)*kw+kx)*oh*ow+oy*ow+ox]
						}
					}
				}
			}
		}
	}
	return img
}

// convCases covers 1×1/3×3/5×5 kernels, stride 1 and 2, pad 0–2,
// non-square inputs and kernels, a single sample and batches that split
// raggedly across 2, 3 and 8 workers, oh·ow from 1 to 1024, same-size
// outputs (one block copy per row), shrinking and growing outputs (per-row
// copies), padding wider than the input, an odd filter count (the
// unpaired GEMM row) and C·kh·kw above gemmBlockK.
var convCases = []struct{ n, c, h, w, outC, kh, kw, stride, pad int }{
	{1, 1, 1, 1, 2, 1, 1, 1, 0},
	{1, 3, 3, 3, 4, 3, 3, 1, 0},
	{5, 2, 4, 4, 3, 1, 1, 1, 0},
	{5, 2, 7, 5, 3, 3, 3, 1, 1},
	{3, 2, 7, 5, 5, 3, 3, 2, 1},
	{5, 4, 9, 9, 3, 5, 5, 1, 2},
	{4, 3, 6, 8, 2, 5, 5, 1, 1},
	{3, 1, 1, 3, 2, 5, 5, 1, 2},
	{2, 2, 3, 1, 2, 5, 5, 1, 2},
	{7, 3, 8, 8, 4, 3, 3, 1, 2},
	{4, 3, 8, 8, 2, 2, 2, 2, 0},
	{5, 2, 9, 6, 3, 1, 1, 2, 0},
	{3, 3, 5, 7, 2, 3, 5, 1, 1},
	{9, 2, 6, 5, 4, 5, 5, 2, 2},
	{2, 15, 6, 6, 5, 3, 3, 1, 1},
	{3, 2, 32, 32, 3, 3, 3, 1, 1},
}

// TestConvFusedMatchesReference pins the fused forward and backward-data
// kernels, bit for bit and at every worker count, to the single-sample
// reference: element-wise im2col, the naive i-p-j product, bias; the naive
// Wᵀ·grad product and element-wise col2im.
func TestConvFusedMatchesReference(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, tc := range convCases {
			rng := rand.New(rand.NewSource(21))
			oh, err := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			ow, err := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			ckk, spat, sample := tc.c*tc.kh*tc.kw, oh*ow, tc.c*tc.h*tc.w
			x := Randn(rng, 0, 1, tc.n, tc.c, tc.h, tc.w)
			w := Randn(rng, 0, 1, tc.outC, ckk)
			// Zero weights exercise the kernels' skip of all-zero row pairs.
			w.data[0], w.data[ckk%len(w.data)] = 0, 0
			bias := Randn(rng, 0, 1, tc.outC)
			grad := Randn(rng, 0, 1, tc.n, tc.outC, oh, ow)

			wantY := New(tc.n, tc.outC, oh, ow)
			wantCols := New(ckk, tc.n*spat)
			wantDx := New(tc.n, tc.c, tc.h, tc.w)
			for i := 0; i < tc.n; i++ {
				xi := MustFromSlice(x.data[i*sample:(i+1)*sample], tc.c, tc.h, tc.w)
				ci := im2colRef(xi, tc.kh, tc.kw, tc.stride, tc.pad, oh, ow)
				single, err := Im2Col(xi, tc.kh, tc.kw, tc.stride, tc.pad)
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, single, ci, fmt.Sprintf("Im2Col %+v", tc))
				yi := matMulRef(w, ci)
				for f := 0; f < tc.outC; f++ {
					for s := 0; s < spat; s++ {
						wantY.data[(i*tc.outC+f)*spat+s] = yi.data[f*spat+s] + bias.data[f]
					}
				}
				for r := 0; r < ckk; r++ {
					copy(wantCols.data[r*tc.n*spat+i*spat:][:spat], ci.data[r*spat:])
				}
				gi := MustFromSlice(grad.data[i*tc.outC*spat:(i+1)*tc.outC*spat], tc.outC, spat)
				di := matMulTransARef(w, gi)
				img := col2imRef(di, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, oh, ow)
				back, err := Col2Im(di, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, back, img, fmt.Sprintf("Col2Im %+v", tc))
				copy(wantDx.data[i*sample:], img.data)
			}

			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("%+v workers=%d", tc, workers)
				old := SetMaxWorkers(workers)
				tiles := New(ConvTiles(tc.n), ckk, spat)
				y, cols, dx := New(tc.n, tc.outC, oh, ow), New(ckk, tc.n*spat), New(tc.n, tc.c, tc.h, tc.w)
				fillNaN(tiles)
				fillNaN(y)
				fillNaN(cols)
				errTrain := ConvForward(x, w, bias, y, cols, tiles, tc.kh, tc.kw, tc.stride, tc.pad)
				evalY := New(tc.n, tc.outC, oh, ow)
				fillNaN(tiles)
				fillNaN(evalY)
				errEval := ConvForward(x, w, bias, evalY, nil, tiles, tc.kh, tc.kw, tc.stride, tc.pad)
				fillNaN(tiles)
				fillNaN(dx)
				errBack := ConvBackwardData(grad, w, dx, tiles, tc.kh, tc.kw, tc.stride, tc.pad)
				SetMaxWorkers(old)
				if errTrain != nil || errEval != nil || errBack != nil {
					t.Fatalf("%s: train %v, eval %v, backward %v", label, errTrain, errEval, errBack)
				}
				requireBitEqual(t, y, wantY, "ConvForward y "+label)
				requireBitEqual(t, cols, wantCols, "ConvForward cols "+label)
				requireBitEqual(t, evalY, wantY, "ConvForward eval y "+label)
				requireBitEqual(t, dx, wantDx, "ConvBackwardData "+label)
			}
		}
	})
}

func TestConvFusedShapeErrors(t *testing.T) {
	const n, c, h, wd, outC, k = 2, 2, 4, 4, 3, 3
	x, w, bias := New(n, c, h, wd), New(outC, c*k*k), New(outC)
	y, cols := New(n, outC, h, wd), New(c*k*k, n*h*wd)
	tiles := New(ConvTiles(n), c*k*k, h*wd)
	if err := ConvForward(x, w, bias, y, cols, tiles, k, k, 1, 1); err != nil {
		t.Fatalf("valid forward: %v", err)
	}
	if err := ConvBackwardData(y, w, x, tiles, k, k, 1, 1); err != nil {
		t.Fatalf("valid backward: %v", err)
	}
	for name, err := range map[string]error{
		"rank-3 input":    ConvForward(New(c, h, wd), w, bias, y, cols, tiles, k, k, 1, 1),
		"zero stride":     ConvForward(x, w, bias, y, cols, tiles, k, k, 0, 1),
		"filter width":    ConvForward(x, New(outC, c*k*k+1), bias, y, cols, tiles, k, k, 1, 1),
		"output shape":    ConvForward(x, w, bias, New(n, outC, h, wd+1), cols, tiles, k, k, 1, 1),
		"bias length":     ConvForward(x, w, New(outC+1), y, cols, tiles, k, k, 1, 1),
		"cols shape":      ConvForward(x, w, bias, y, New(c*k*k, n*h*wd+1), tiles, k, k, 1, 1),
		"short tiles":     ConvForward(x, w, bias, y, nil, New(c*k*k*h*wd-1), k, k, 1, 1),
		"backward grad":   ConvBackwardData(New(n, outC+1, h, wd), w, x, tiles, k, k, 1, 1),
		"backward tiles":  ConvBackwardData(y, w, x, New(1), k, k, 1, 1),
		"backward rank-3": ConvBackwardData(y, w, New(c, h, wd), tiles, k, k, 1, 1),
	} {
		if err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
