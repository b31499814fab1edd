package nn

import (
	"fmt"
	"math"
	"math/rand"

	"a4nn/internal/tensor"
)

// ReLU is the rectified linear activation applied element-wise; it works
// on tensors of any rank. Its output and gradient buffers are pooled and
// reused across steps. Both passes are branch-free — the sign of an
// activation is a coin toss no predictor learns — which also means a NaN
// input is passed on as NaN (max(NaN, 0)) rather than zeroed; its gradient
// is still zero.
type ReLU struct {
	mask []bool // forward cache: which inputs were positive
	y    *tensor.Tensor
	dx   *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// FLOPs implements Layer: one comparison per element.
func (r *ReLU) FLOPs(in []int) int64 { return int64(shapeProduct(in)) }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	r.y = ws.Obtain(r.y, x.Shape()...)
	xd, yd := x.Data(), r.y.Data()
	yd = yd[:len(xd)]
	if !train {
		for i, v := range xd {
			yd[i] = max(v, 0)
		}
		return r.y, nil
	}
	if cap(r.mask) < len(xd) {
		r.mask = make([]bool, len(xd))
	}
	r.mask = r.mask[:len(xd)]
	for i, v := range xd {
		yd[i] = max(v, 0)
		r.mask[i] = v > 0
	}
	return r.y, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.mask == nil || len(r.mask) != grad.Len() {
		return nil, fmt.Errorf("nn: relu: Backward without matching training Forward")
	}
	r.dx = ws.Obtain(r.dx, grad.Shape()...)
	gd, dd := grad.Data(), r.dx.Data()
	gd, dd = gd[:len(r.mask)], dd[:len(r.mask)]
	for i, m := range r.mask {
		// keep is all ones where the input was positive: the gradient's
		// bits pass or are cleared to +0 without a branch on the data.
		var keep uint64
		if m {
			keep = 1
		}
		dd[i] = math.Float64frombits(math.Float64bits(gd[i]) & -keep)
	}
	return r.dx, nil
}

// Flatten reshapes (N, C, H, W) (or any rank ≥ 2) batches to (N, rest).
type Flatten struct {
	inShape []int // forward cache (per-sample)
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	return []int{shapeProduct(in)}, nil
}

// FLOPs implements Layer.
func (f *Flatten) FLOPs(in []int) int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() < 2 {
		return nil, errShape("flatten", "(N,...)", x.Shape())
	}
	if train {
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("nn: flatten: Backward without prior training Forward")
	}
	return grad.Reshape(f.inShape...)
}

// Dropout zeroes activations with probability P during training and
// scales survivors by 1/(1−P) (inverted dropout); evaluation is identity.
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []float64
	y    *tensor.Tensor
	dx   *tensor.Tensor
}

// NewDropout creates a dropout layer with drop probability p in [0, 1).
func NewDropout(rng *rand.Rand, p float64) (*Dropout, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("nn: dropout probability %v outside [0,1)", p)
	}
	return &Dropout{P: p, rng: rng}, nil
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.2g)", d.P) }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// FLOPs implements Layer.
func (d *Dropout) FLOPs(in []int) int64 { return int64(shapeProduct(in)) }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || d.P == 0 {
		d.mask = nil
		return x, nil
	}
	scale := 1 / (1 - d.P)
	if cap(d.mask) < x.Len() {
		d.mask = make([]float64, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	d.y = ws.Obtain(d.y, x.Shape()...)
	xd, yd := x.Data(), d.y.Data()
	for i := range xd {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
			yd[i] = 0
		} else {
			d.mask[i] = scale
			yd[i] = xd[i] * scale
		}
	}
	return d.y, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.mask == nil {
		// Forward ran in eval mode or with P=0: identity.
		return grad, nil
	}
	if len(d.mask) != grad.Len() {
		return nil, fmt.Errorf("nn: dropout: gradient length %d does not match mask %d", grad.Len(), len(d.mask))
	}
	d.dx = ws.Obtain(d.dx, grad.Shape()...)
	gd, dd := grad.Data(), d.dx.Data()
	for i, m := range d.mask {
		dd[i] = gd[i] * m
	}
	return d.dx, nil
}
