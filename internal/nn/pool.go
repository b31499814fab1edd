package nn

import (
	"fmt"

	"a4nn/internal/tensor"
)

// MaxPool2D is max pooling with a square window, equal stride, and
// optional symmetric zero-padding (padded positions never win the max)
// over NCHW batches. The common configurations are 2×2/s2 (downsampling)
// and 3×3/s1/p1 (same-size, used by the micro search space's pooling op).
type MaxPool2D struct {
	K, Stride, Pad int

	// forward cache
	argmax  []int // flat input index of each output's maximum
	inShape []int
	y, dx   *tensor.Tensor // pooled output / input-gradient buffers
}

// NewMaxPool2D creates an unpadded max-pooling layer.
func NewMaxPool2D(k, stride int) (*MaxPool2D, error) {
	return NewMaxPool2DPadded(k, stride, 0)
}

// NewMaxPool2DPadded creates a max-pooling layer with symmetric padding.
func NewMaxPool2DPadded(k, stride, pad int) (*MaxPool2D, error) {
	if k <= 0 || stride <= 0 || pad < 0 || pad >= k {
		return nil, fmt.Errorf("nn: MaxPool2D invalid k=%d stride=%d pad=%d", k, stride, pad)
	}
	return &MaxPool2D{K: k, Stride: stride, Pad: pad}, nil
}

// Name implements Layer.
func (p *MaxPool2D) Name() string {
	return fmt.Sprintf("maxpool%dx%d/s%d,p%d", p.K, p.K, p.Stride, p.Pad)
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, errShape(p.Name(), "(C,H,W)", in)
	}
	oh, err := tensor.ConvOutSize(in[1], p.K, p.Stride, p.Pad)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", p.Name(), err)
	}
	ow, err := tensor.ConvOutSize(in[2], p.K, p.Stride, p.Pad)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", p.Name(), err)
	}
	return []int{in[0], oh, ow}, nil
}

// FLOPs implements Layer: K²−1 comparisons per output element.
func (p *MaxPool2D) FLOPs(in []int) int64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(shapeProduct(out)) * int64(p.K*p.K-1)
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, errShape(p.Name(), "(N,C,H,W)", x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out, err := p.OutShape([]int{c, h, w})
	if err != nil {
		return nil, err
	}
	oh, ow := out[1], out[2]
	p.y = ws.Obtain(p.y, n, c, oh, ow)
	y := p.y
	if train {
		if cap(p.argmax) < y.Len() {
			p.argmax = make([]int, y.Len())
		}
		p.argmax = p.argmax[:y.Len()]
		p.inShape = append(p.inShape[:0], n, c, h, w)
	}
	xd, yd := x.Data(), y.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := -1
					best := 0.0
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride - p.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride - p.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if bestIdx < 0 || xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					// A window fully in padding (impossible for pad < k)
					// would leave bestIdx = -1; guard anyway.
					if bestIdx < 0 {
						best = 0
					}
					yd[oi] = best
					if train {
						p.argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return y, nil
}

// Backward implements Layer: the gradient routes to each window's argmax.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if p.argmax == nil {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", p.Name())
	}
	if grad.Len() != len(p.argmax) {
		return nil, fmt.Errorf("nn: %s: gradient has %d elements, expected %d", p.Name(), grad.Len(), len(p.argmax))
	}
	// Zeroed: the gradient scatters sparsely into the pooled buffer.
	dx := ws.ObtainZeroed(p.dx, p.inShape...)
	p.dx = dx
	dd, gd := dx.Data(), grad.Data()
	for oi, idx := range p.argmax {
		if idx >= 0 {
			dd[idx] += gd[oi]
		}
	}
	return dx, nil
}

// Release implements Releaser.
func (p *MaxPool2D) Release() { release(p.y, p.dx) }

// GlobalAvgPool2D averages each channel's spatial map to a single value,
// turning (N, C, H, W) into (N, C). It replaces large dense layers at the
// head of the genome-decoded networks, keeping FLOPs low.
type GlobalAvgPool2D struct {
	inShape []int
	y, dx   *tensor.Tensor
}

// NewGlobalAvgPool2D creates the layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Name implements Layer.
func (g *GlobalAvgPool2D) Name() string { return "gap" }

// Params implements Layer.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GlobalAvgPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, errShape("gap", "(C,H,W)", in)
	}
	return []int{in[0]}, nil
}

// FLOPs implements Layer.
func (g *GlobalAvgPool2D) FLOPs(in []int) int64 { return int64(shapeProduct(in)) }

// Forward implements Layer.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, errShape("gap", "(N,C,H,W)", x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spat := h * w
	g.y = ws.Obtain(g.y, n, c)
	y := g.y
	xd, yd := x.Data(), y.Data()
	inv := 1 / float64(spat)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for _, v := range xd[(i*c+ch)*spat : (i*c+ch+1)*spat] {
				s += v
			}
			yd[i*c+ch] = s * inv
		}
	}
	if train {
		g.inShape = append(g.inShape[:0], n, c, h, w)
	}
	return y, nil
}

// Backward implements Layer.
func (g *GlobalAvgPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if g.inShape == nil {
		return nil, fmt.Errorf("nn: gap: Backward without prior training Forward")
	}
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != c {
		return nil, errShape("gap backward", []int{n, c}, grad.Shape())
	}
	spat := h * w
	inv := 1 / float64(spat)
	dx := ws.Obtain(g.dx, n, c, h, w)
	g.dx = dx
	dd, gd := dx.Data(), grad.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			v := gd[i*c+ch] * inv
			row := dd[(i*c+ch)*spat : (i*c+ch+1)*spat]
			for s := range row {
				row[s] = v
			}
		}
	}
	return dx, nil
}

// Release implements Releaser.
func (g *GlobalAvgPool2D) Release() { release(g.y, g.dx) }
