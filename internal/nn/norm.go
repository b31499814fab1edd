package nn

import (
	"fmt"
	"math"

	"a4nn/internal/tensor"
)

// BatchNormGeom is a batch normalisation's geometry over C channels; see
// ConvGeom.
type BatchNormGeom struct{ C int }

// BatchNorm2D normalises each channel of an NCHW batch to zero mean and
// unit variance using batch statistics during training (while maintaining
// running statistics for evaluation), then applies a learned affine
// transform gamma·x̂ + beta.
type BatchNorm2D struct {
	BatchNormGeom
	Eps      float64
	Momentum float64 // running-stat update rate, typically 0.1

	Gamma, Beta *Param
	// RunningMean and RunningVar are the statistics used at evaluation
	// time. They warm up as a cumulative average over the first 1/Momentum
	// updates and then track as an exponential moving average — without
	// the warm-up, networks with deep batch-norm chains (e.g. stacked
	// micro cells) evaluate at chance for many epochs because the
	// compounding mismatch between batch and (still near-initial) running
	// statistics collapses eval-mode activations. They are state, not
	// trainable parameters.
	RunningMean, RunningVar *tensor.Tensor
	// updates counts training batches seen, for the warm-up schedule.
	updates int

	// forward cache
	xhat    *tensor.Tensor
	std     []float64 // per-channel sqrt(var+eps) of the batch
	inShape []int
	y, dx   *tensor.Tensor // pooled output / input-gradient buffers
}

// NewBatchNorm2D creates a batch-normalisation layer over c channels.
func NewBatchNorm2D(c int) (*BatchNorm2D, error) {
	if c <= 0 {
		return nil, fmt.Errorf("nn: BatchNorm2D invalid channels %d", c)
	}
	return &BatchNorm2D{
		BatchNormGeom: BatchNormGeom{C: c}, Eps: 1e-5, Momentum: 0.1,
		Gamma:       newParam("bn.gamma", tensor.Ones(c)),
		Beta:        newParam("bn.beta", tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}, nil
}

// Name implements Layer.
func (b BatchNormGeom) Name() string { return fmt.Sprintf("bn(%d)", b.C) }

// NumParams is the size of Gamma plus Beta.
func (b BatchNormGeom) NumParams() int { return 2 * b.C }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// OutShape implements Layer.
func (b BatchNormGeom) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.C {
		return nil, errShape(b.Name(), []int{b.C, -1, -1}, in)
	}
	return append([]int(nil), in...), nil
}

// FLOPs implements Layer: normalise + affine ≈ 4 ops per element.
func (b BatchNormGeom) FLOPs(in []int) int64 { return 4 * int64(shapeProduct(in)) }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != b.C {
		return nil, errShape(b.Name(), "(N,C,H,W)", x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spat := h * w
	cnt := float64(n * spat)
	b.y = ws.Obtain(b.y, n, c, h, w)
	y := b.y
	xd, yd := x.Data(), y.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()

	if train {
		b.updates++
		// Cumulative average until 1/Momentum updates, then EMA.
		m := b.Momentum
		if cma := 1 / float64(b.updates); cma > m {
			m = cma
		}
		xhat := ws.Obtain(b.xhat, n, c, h, w)
		xh := xhat.Data()
		if cap(b.std) < c {
			b.std = make([]float64, c)
		}
		std := b.std[:c]
		for ch := 0; ch < c; ch++ {
			mean, m2 := 0.0, 0.0
			for i := 0; i < n; i++ {
				for _, v := range xd[(i*c+ch)*spat : (i*c+ch+1)*spat] {
					mean += v
				}
			}
			mean /= cnt
			for i := 0; i < n; i++ {
				for _, v := range xd[(i*c+ch)*spat : (i*c+ch+1)*spat] {
					d := v - mean
					m2 += d * d
				}
			}
			variance := m2 / cnt
			std[ch] = math.Sqrt(variance + b.Eps)
			inv := 1 / std[ch]
			for i := 0; i < n; i++ {
				off := (i*c + ch) * spat
				for s := 0; s < spat; s++ {
					xn := (xd[off+s] - mean) * inv
					xh[off+s] = xn
					yd[off+s] = gd[ch]*xn + bd[ch]
				}
			}
			// Update running statistics.
			rm, rv := b.RunningMean.Data(), b.RunningVar.Data()
			rm[ch] = (1-m)*rm[ch] + m*mean
			rv[ch] = (1-m)*rv[ch] + m*variance
		}
		b.xhat, b.std, b.inShape = xhat, std, append(b.inShape[:0], n, c, h, w)
		return y, nil
	}

	// Evaluation: use running statistics.
	rm, rv := b.RunningMean.Data(), b.RunningVar.Data()
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(rv[ch]+b.Eps)
		for i := 0; i < n; i++ {
			off := (i*c + ch) * spat
			for s := 0; s < spat; s++ {
				yd[off+s] = gd[ch]*(xd[off+s]-rm[ch])*inv + bd[ch]
			}
		}
	}
	return y, nil
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx̂ = dy·γ
//	dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂)) / std
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if b.xhat == nil {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", b.Name())
	}
	n, c, h, w := b.inShape[0], b.inShape[1], b.inShape[2], b.inShape[3]
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c || grad.Dim(2) != h || grad.Dim(3) != w {
		return nil, errShape(b.Name()+" backward", b.inShape, grad.Shape())
	}
	spat := h * w
	cnt := float64(n * spat)
	dx := ws.Obtain(b.dx, n, c, h, w)
	b.dx = dx
	gd := grad.Data()
	xh := b.xhat.Data()
	dd := dx.Data()
	gamma := b.Gamma.Value.Data()
	ggrad, bgrad := b.Gamma.Grad.Data(), b.Beta.Grad.Data()

	for ch := 0; ch < c; ch++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for i := 0; i < n; i++ {
			off := (i*c + ch) * spat
			for s := 0; s < spat; s++ {
				dy := gd[off+s]
				sumDy += dy
				sumDyXhat += dy * xh[off+s]
			}
		}
		ggrad[ch] += sumDyXhat
		bgrad[ch] += sumDy
		meanDy := sumDy / cnt
		meanDyXhat := sumDyXhat / cnt
		scale := gamma[ch] / b.std[ch]
		for i := 0; i < n; i++ {
			off := (i*c + ch) * spat
			for s := 0; s < spat; s++ {
				dd[off+s] = scale * (gd[off+s] - meanDy - xh[off+s]*meanDyXhat)
			}
		}
	}
	return dx, nil
}
