package nn

import (
	"fmt"
	"math"
	"math/rand"

	"a4nn/internal/tensor"
)

// ConvGeom is a convolution's geometry: what a Conv2D is before it has
// weights — its name, shape arithmetic, per-sample cost and parameter
// count. Conv2D embeds it, so the layer's Name, OutShape and FLOPs are
// these, and genome.Cost prices a network from the same methods without
// drawing a weight.
type ConvGeom struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
}

// Conv2D is a 2-D convolution over NCHW batches, run by the fused
// per-sample im2col → GEMM kernels of internal/tensor. All buffers are
// pooled and reused across training steps; a steady-state forward/backward
// pair allocates no tensor storage.
type Conv2D struct {
	ConvGeom
	W *Param // (OutC, InC·KH·KW)
	B *Param // (OutC)

	// Reusable kernel workspace. cols is written by training forwards only
	// and consumed by the backward pass; the rest is recycled every call.
	cols  *tensor.Tensor // (InC·KH·KW, N·OH·OW) batched im2col, for dW
	tiles *tensor.Tensor // (chunks, InC·KH·KW, OH·OW) fused-kernel scratch
	y     *tensor.Tensor // (N, OutC, OH, OW) layer output
	g     *tensor.Tensor // (OutC, N·OH·OW) rearranged output gradient
	dw    *tensor.Tensor // (OutC, InC·KH·KW) weight-gradient scratch
	dx    *tensor.Tensor // (N, InC, H, W) input gradient

	inH, inW   int
	batch      int
	outH, outW int
	trained    bool // a training Forward has populated cols
}

// NewConv2D creates a convolution with He-normal initialised weights.
func NewConv2D(rng *rand.Rand, inC, outC, kh, kw, stride, pad int) (*Conv2D, error) {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 {
		return nil, fmt.Errorf("nn: Conv2D invalid geometry inC=%d outC=%d k=%dx%d", inC, outC, kh, kw)
	}
	if stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: Conv2D invalid stride=%d pad=%d", stride, pad)
	}
	g := ConvGeom{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad}
	std := math.Sqrt(2.0 / float64(g.fanIn()))
	w := tensor.Randn(rng, 0, std, outC, g.fanIn())
	b := tensor.New(outC)
	return &Conv2D{
		ConvGeom: g,
		W:        newParam(fmt.Sprintf("conv%dx%d.W", kh, kw), w),
		B:        newParam(fmt.Sprintf("conv%dx%d.B", kh, kw), b),
	}, nil
}

// fanIn is the number of inputs to one output element, the width of W.
func (c ConvGeom) fanIn() int { return c.InC * c.KH * c.KW }

// NumParams is the size of W (OutC, InC·KH·KW) plus B (OutC).
func (c ConvGeom) NumParams() int { return c.OutC*c.fanIn() + c.OutC }

// Name implements Layer.
func (c ConvGeom) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.KH, c.KW, c.InC, c.OutC, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutShape implements Layer.
func (c ConvGeom) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, errShape(c.Name(), []int{c.InC, -1, -1}, in)
	}
	oh, err := tensor.ConvOutSize(in[1], c.KH, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", c.Name(), err)
	}
	ow, err := tensor.ConvOutSize(in[2], c.KW, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", c.Name(), err)
	}
	return []int{c.OutC, oh, ow}, nil
}

// FLOPs implements Layer: 2·InC·KH·KW multiply-adds per output element.
func (c ConvGeom) FLOPs(in []int) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	perOut := int64(2*c.InC*c.KH*c.KW + 1) // MACs + bias
	return perOut * int64(shapeProduct(out))
}

// Forward implements Layer for x of shape (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		return nil, errShape(c.Name(), "(N,inC,H,W)", x.Shape())
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outShape, err := c.OutShape([]int{c.InC, h, w})
	if err != nil {
		return nil, err
	}
	oh, ow := outShape[1], outShape[2]
	ckk := c.InC * c.KH * c.KW
	spat := oh * ow

	c.y = ws.Obtain(c.y, n, c.OutC, oh, ow)
	c.tiles = ws.Obtain(c.tiles, tensor.ConvTiles(n), ckk, spat)
	var cols *tensor.Tensor
	if train {
		c.cols = ws.Obtain(c.cols, ckk, n*spat)
		cols = c.cols
	}
	if err := tensor.ConvForward(x, c.W.Value, c.B.Value, c.y, cols, c.tiles, c.KH, c.KW, c.Stride, c.Pad); err != nil {
		return nil, fmt.Errorf("nn: %s forward: %w", c.Name(), err)
	}
	if train {
		c.batch, c.inH, c.inW, c.outH, c.outW = n, h, w, oh, ow
		c.trained = true
	}
	return c.y, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if !c.trained {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", c.Name())
	}
	n, oh, ow := c.batch, c.outH, c.outW
	spat := oh * ow
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.OutC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		return nil, errShape(c.Name()+" backward", []int{n, c.OutC, oh, ow}, grad.Shape())
	}

	// Rearrange grad (N, OutC, spat) → G (OutC, N·spat).
	c.g = ws.Obtain(c.g, c.OutC, n*spat)
	gd, rd := c.g.Data(), grad.Data()
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			src := rd[i*c.OutC*spat+f*spat : i*c.OutC*spat+(f+1)*spat]
			copy(gd[f*n*spat+i*spat:f*n*spat+(i+1)*spat], src)
		}
	}

	// dW += G · colsᵀ ; db += row sums of G.
	c.dw = ws.Obtain(c.dw, c.OutC, c.InC*c.KH*c.KW)
	if err := tensor.MatMulTransBInto(c.g, c.cols, c.dw); err != nil {
		return nil, fmt.Errorf("nn: %s backward dW: %w", c.Name(), err)
	}
	c.W.Grad.AddScaled(c.dw, 1)
	bg := c.B.Grad.Data()
	for f := 0; f < c.OutC; f++ {
		s := 0.0
		for _, v := range gd[f*n*spat : (f+1)*n*spat] {
			s += v
		}
		bg[f] += s
	}

	c.dx = ws.Obtain(c.dx, n, c.InC, c.inH, c.inW)
	c.tiles = ws.Obtain(c.tiles, tensor.ConvTiles(n), c.InC*c.KH*c.KW, spat)
	if err := tensor.ConvBackwardData(grad, c.W.Value, c.dx, c.tiles, c.KH, c.KW, c.Stride, c.Pad); err != nil {
		return nil, fmt.Errorf("nn: %s backward data: %w", c.Name(), err)
	}
	return c.dx, nil
}
