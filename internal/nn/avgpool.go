package nn

import (
	"fmt"

	"a4nn/internal/tensor"
)

// AvgPool2D is average pooling with a square window, equal stride, and
// optional symmetric padding over NCHW batches. Border windows average
// only the real (unpadded) pixels they cover.
type AvgPool2D struct {
	K, Stride, Pad int

	inShape []int
	y, dx   *tensor.Tensor // pooled output / input-gradient buffers
}

// NewAvgPool2DPadded creates an average-pooling layer with symmetric
// padding.
func NewAvgPool2DPadded(k, stride, pad int) (*AvgPool2D, error) {
	if k <= 0 || stride <= 0 || pad < 0 || pad >= k {
		return nil, fmt.Errorf("nn: AvgPool2D invalid k=%d stride=%d pad=%d", k, stride, pad)
	}
	return &AvgPool2D{K: k, Stride: stride, Pad: pad}, nil
}

// Name implements Layer.
func (p *AvgPool2D) Name() string {
	return fmt.Sprintf("avgpool%dx%d/s%d,p%d", p.K, p.K, p.Stride, p.Pad)
}

// Params implements Layer.
func (p *AvgPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(in []int) ([]int, error) {
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

// FLOPs implements Layer: K² adds + 1 divide per output element.
func (p *AvgPool2D) FLOPs(in []int) int64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(shapeProduct(out)) * int64(p.K*p.K+1)
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
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
	xd, yd := x.Data(), y.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum, cnt := 0.0, 0
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
							sum += xd[base+iy*w+ix]
							cnt++
						}
					}
					if cnt == 0 {
						cnt = 1 // unreachable for pad < k; avoid 0/0
					}
					yd[oi] = sum / float64(cnt)
					oi++
				}
			}
		}
	}
	if train {
		p.inShape = append(p.inShape[:0], n, c, h, w)
	}
	return y, nil
}

// Backward implements Layer: each input in a window receives grad/|window|.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if p.inShape == nil {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", p.Name())
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	out, err := p.OutShape([]int{c, h, w})
	if err != nil {
		return nil, err
	}
	oh, ow := out[1], out[2]
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c || grad.Dim(2) != oh || grad.Dim(3) != ow {
		return nil, errShape(p.Name()+" backward", []int{n, c, oh, ow}, grad.Shape())
	}
	// Zeroed: border windows accumulate shares into the pooled buffer.
	dx := ws.ObtainZeroed(p.dx, n, c, h, w)
	p.dx = dx
	dd, gd := dx.Data(), grad.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// Count window size (may be clipped at borders/padding).
					cnt := 0
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
							cnt++
						}
					}
					if cnt == 0 {
						cnt = 1
					}
					share := gd[oi] / float64(cnt)
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
							dd[base+iy*w+ix] += share
						}
					}
					oi++
				}
			}
		}
	}
	return dx, nil
}

// Release implements Releaser.
func (p *AvgPool2D) Release() { release(p.y, p.dx) }
