package nn

import (
	"fmt"
	"math"
	"math/rand"

	"a4nn/internal/tensor"
)

// DenseGeom is a fully connected layer's geometry; see ConvGeom.
type DenseGeom struct{ In, Out int }

// Dense is a fully connected layer y = x·Wᵀ + b over batches of shape
// (N, In); W has shape (Out, In). Output and gradient buffers come from
// the shared workspace and are reused across steps.
type Dense struct {
	DenseGeom
	W *Param
	B *Param

	x  *tensor.Tensor // forward cache (borrowed from upstream layer)
	y  *tensor.Tensor // (N, Out) pooled output
	dx *tensor.Tensor // (N, In) pooled input gradient
}

// NewDense creates a dense layer with He-normal initialised weights.
func NewDense(rng *rand.Rand, in, out int) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: Dense invalid geometry in=%d out=%d", in, out)
	}
	std := math.Sqrt(2.0 / float64(in))
	return &Dense{
		DenseGeom: DenseGeom{In: in, Out: out},
		W:         newParam("dense.W", tensor.Randn(rng, 0, std, out, in)),
		B:         newParam("dense.B", tensor.New(out)),
	}, nil
}

// Name implements Layer.
func (d DenseGeom) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// NumParams is the size of W (Out, In) plus B (Out).
func (d DenseGeom) NumParams() int { return d.Out*d.In + d.Out }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutShape implements Layer.
func (d DenseGeom) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.In {
		return nil, errShape(d.Name(), []int{d.In}, in)
	}
	return []int{d.Out}, nil
}

// FLOPs implements Layer: 2·In MACs + 1 bias add per output unit.
func (d DenseGeom) FLOPs(in []int) int64 {
	if _, err := d.OutShape(in); err != nil {
		return 0
	}
	return int64(d.Out) * int64(2*d.In+1)
}

// Forward implements Layer for x of shape (N, In).
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		return nil, errShape(d.Name(), "(N,in)", x.Shape())
	}
	n := x.Dim(0)
	d.y = ws.Obtain(d.y, n, d.Out)
	if err := tensor.MatMulTransBInto(x, d.W.Value, d.y); err != nil { // (N, Out)
		return nil, fmt.Errorf("nn: %s forward: %w", d.Name(), err)
	}
	yd, bd := d.y.Data(), d.B.Value.Data()
	for i := 0; i < n; i++ {
		row := yd[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	if train {
		d.x = x
	}
	return d.y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.x == nil {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", d.Name())
	}
	n := d.x.Dim(0)
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != d.Out {
		return nil, errShape(d.Name()+" backward", []int{n, d.Out}, grad.Shape())
	}
	if err := tensor.MatMulTransAAddInto(grad, d.x, d.W.Grad); err != nil { // dW += gradᵀ·x
		return nil, fmt.Errorf("nn: %s backward dW: %w", d.Name(), err)
	}
	bg, gd := d.B.Grad.Data(), grad.Data()
	for i := 0; i < n; i++ {
		row := gd[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			bg[j] += v
		}
	}
	d.dx = ws.Obtain(d.dx, n, d.In)
	if err := tensor.MatMulInto(grad, d.W.Value, d.dx); err != nil { // (N, In)
		return nil, fmt.Errorf("nn: %s backward dx: %w", d.Name(), err)
	}
	return d.dx, nil
}

// Release implements Releaser; the borrowed input is dropped, not put.
func (d *Dense) Release() {
	release(d.y, d.dx)
	d.x = nil
}
