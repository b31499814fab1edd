package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel size, stride, and symmetric
// padding. It returns an error when the geometry is invalid.
func ConvOutSize(in, kernel, stride, pad int) (int, error) {
	if stride <= 0 {
		return 0, fmt.Errorf("tensor: stride must be positive, got %d", stride)
	}
	if kernel <= 0 {
		return 0, fmt.Errorf("tensor: kernel must be positive, got %d", kernel)
	}
	if pad < 0 {
		return 0, fmt.Errorf("tensor: pad must be non-negative, got %d", pad)
	}
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		return 0, fmt.Errorf("tensor: convolution output size %d for in=%d kernel=%d stride=%d pad=%d", out, in, kernel, stride, pad)
	}
	return out, nil
}

// Im2Col unrolls a single image x with shape (C, H, W) into a matrix of
// shape (C·kh·kw, oh·ow) so that convolution becomes a matrix product of
// the (F, C·kh·kw) filter matrix with the column matrix. Out-of-bounds
// (padded) positions contribute zeros.
func Im2Col(x *Tensor, kh, kw, stride, pad int) (*Tensor, error) {
	g, err := newConvGeom("Im2Col", x, 3, kh, kw, stride, pad)
	if err != nil {
		return nil, err
	}
	cols := New(g.ckk, g.spat)
	im2colStrided(x.data, cols.data, 0, g.spat, g)
	return cols, nil
}

// Im2ColBatchInto unrolls every sample of an NCHW batch x (N, C, H, W)
// directly into cols, a (C·kh·kw, N·oh·ow) matrix in which sample i's
// columns occupy the strided slot [i·oh·ow, (i+1)·oh·ow) of every row —
// the layout the convolution weight-gradient product consumes. Every
// element of cols is overwritten (padded positions with zeros), so cols
// may come from a workspace uninitialised. Samples are unrolled in
// parallel on the shared worker pool, bounded by SetMaxWorkers.
func Im2ColBatchInto(x, cols *Tensor, kh, kw, stride, pad int) error {
	g, err := newConvGeom("Im2ColBatchInto", x, 4, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	if cols.Rank() != 2 || cols.shape[0] != g.ckk || cols.shape[1] != g.n*g.spat {
		return fmt.Errorf("tensor: Im2ColBatchInto expects cols of shape (%d,%d), got %v", g.ckk, g.n*g.spat, cols.shape)
	}
	parallelRange(g.n, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			im2colStrided(x.data[i*g.sample:(i+1)*g.sample], cols.data, i*g.spat, g.n*g.spat, g)
		}
	})
	return nil
}

// convSpan returns the output positions [lo, hi) within [0, out) whose
// input position o·stride+d falls inside [0, in); every other output
// position reads padding. lo == hi when there are none.
func convSpan(in, d, stride, out int) (lo, hi int) {
	lo = max((-d+stride-1)/stride, 0)
	return lo, max(min((in-d+stride-1)/stride, out), lo)
}

// im2colStrided writes one sample's column matrix into cols, where row r
// of the logical (C·kh·kw, oh·ow) matrix lives at offset r·rowStride+off.
// With off=0 and rowStride=oh·ow this is the dense single-sample layout;
// Im2ColBatchInto passes the batched stride so no intermediate copy is
// needed. Each output row is a run of one input row between two bands of
// padding: the bands are cleared and the run gathered with no per-pixel
// bounds test. At stride 1 (all genome.Decode emits) the run is a copy,
// and when the output is as wide as the input successive runs are
// contiguous: one copy fills the matrix row, then the wrapped edge
// columns are re-zeroed.
func im2colStrided(x, cols []float64, off, rowStride int, g convGeom) {
	h, w, kh, kw, stride, pad, oh, ow := g.h, g.w, g.kh, g.kw, g.stride, g.pad, g.oh, g.ow
	for ch := 0; ch < g.c; ch++ {
		img := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			oy0, oy1 := convSpan(h, ky-pad, stride, oh)
			for kx := 0; kx < kw; kx++ {
				r := (ch*kh+ky)*kw + kx
				row := cols[r*rowStride+off:][:oh*ow]
				lo, hi := convSpan(w, kx-pad, stride, ow)
				if lo == hi || oy0 == oy1 {
					clear(row)
					continue
				}
				if stride == 1 && ow == w {
					j0, j1 := oy0*ow+lo, (oy1-1)*ow+hi
					clear(row[:j0])
					copy(row[j0:j1], img[j0+(ky-pad)*w+kx-pad:])
					clear(row[j1:])
					for oy := oy0; oy < oy1; oy++ {
						clear(row[oy*ow : oy*ow+lo])
						clear(row[oy*ow+hi : (oy+1)*ow])
					}
					continue
				}
				clear(row[:oy0*ow])
				for oy := oy0; oy < oy1; oy++ {
					dst := row[oy*ow : (oy+1)*ow]
					base := (oy*stride+ky-pad)*w + kx - pad
					clear(dst[:lo])
					if stride == 1 {
						copy(dst[lo:hi], img[base+lo:])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[ox] = img[base+ox*stride]
						}
					}
					clear(dst[hi:])
				}
				clear(row[oy1*ow:])
			}
		}
	}
}

// Col2Im scatters a column matrix produced by Im2Col back into an image of
// shape (C, H, W), accumulating overlapping contributions. It is the adjoint
// of Im2Col and is used in the convolution backward pass.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) (*Tensor, error) {
	img := New(c, h, w)
	g, err := newConvGeom("Col2Im", img, 3, kh, kw, stride, pad)
	if err != nil {
		return nil, err
	}
	if cols.Rank() != 2 || cols.shape[0] != g.ckk || cols.shape[1] != g.spat {
		return nil, fmt.Errorf("tensor: Col2Im expects cols of shape (%d,%d), got %v", g.ckk, g.spat, cols.shape)
	}
	col2imStrided(cols.data, img.data, 0, g.spat, g)
	return img, nil
}

// col2imStrided scatter-accumulates one sample's columns (row r of the
// logical matrix at offset r·rowStride+off) into the (C, H, W) image img,
// which the caller has zeroed. It walks the same runs as im2colStrided, so
// each image element receives its terms in (ky, kx, oy, ox) order.
func col2imStrided(cols, img []float64, off, rowStride int, g convGeom) {
	h, w, kh, kw, stride, pad, oh, ow := g.h, g.w, g.kh, g.kw, g.stride, g.pad, g.oh, g.ow
	for ch := 0; ch < g.c; ch++ {
		out := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			oy0, oy1 := convSpan(h, ky-pad, stride, oh)
			for kx := 0; kx < kw; kx++ {
				lo, hi := convSpan(w, kx-pad, stride, ow)
				if lo == hi {
					continue
				}
				r := (ch*kh+ky)*kw + kx
				row := cols[r*rowStride+off:][:oh*ow]
				for oy := oy0; oy < oy1; oy++ {
					src := row[oy*ow+lo : oy*ow+hi]
					base := (oy*stride+ky-pad)*w + kx - pad + lo*stride
					if stride == 1 {
						dst := out[base:][:len(src)]
						for j, v := range src {
							dst[j] += v
						}
					} else {
						for j, v := range src {
							out[base+j*stride] += v
						}
					}
				}
			}
		}
	}
}
