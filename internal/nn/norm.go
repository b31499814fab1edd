package nn

import (
	"fmt"
	"math"

	"a4nn/internal/tensor"
)

// BatchNormReLUGeom is the geometry of a batch normalisation over C
// channels followed by a ReLU; see ConvGeom.
type BatchNormReLUGeom struct{ C int }

// BatchNormReLU normalises each channel of an NCHW batch to zero mean and
// unit variance using batch statistics during training (while maintaining
// running statistics for evaluation), applies a learned affine transform
// gamma·x̂ + beta, and rectifies the result: y = max(gamma·x̂ + beta, 0).
// The two layers are one because every decoded network builds them as that
// pair; fused, a training forward makes three sweeps over the activation
// (mean, variance, output) and a backward two (the sums, then dx). The bits
// are those of the separate batch norm followed by ReLU: the same
// expressions per element, each channel's sums accumulated in ascending
// (sample, position), the ReLU as max(z, 0) and its gradient as a bit-AND
// with the mask z > 0.
type BatchNormReLU struct {
	BatchNormReLUGeom
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
	mask    []bool    // which pre-activations γ·x̂+β were positive
	std     []float64 // per-channel sqrt(var+eps) of the batch
	stats   []float64 // per-channel scratch: the batch means, then variances
	inShape []int
	y, dx   *tensor.Tensor // pooled output / input-gradient buffers
}

// NewBatchNormReLU creates a batch normalisation over c channels followed
// by a ReLU.
func NewBatchNormReLU(c int) (*BatchNormReLU, error) {
	if c <= 0 {
		return nil, fmt.Errorf("nn: BatchNormReLU invalid channels %d", c)
	}
	return &BatchNormReLU{
		BatchNormReLUGeom: BatchNormReLUGeom{C: c}, Eps: 1e-5, Momentum: 0.1,
		Gamma:       newParam("bn.gamma", tensor.Ones(c)),
		Beta:        newParam("bn.beta", tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}, nil
}

// Name implements Layer.
func (b BatchNormReLUGeom) Name() string { return fmt.Sprintf("bnrelu(%d)", b.C) }

// NumParams is the size of Gamma plus Beta.
func (b BatchNormReLUGeom) NumParams() int { return 2 * b.C }

// Params implements Layer.
func (b *BatchNormReLU) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// OutShape implements Layer.
func (b BatchNormReLUGeom) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.C {
		return nil, errShape(b.Name(), []int{b.C, -1, -1}, in)
	}
	return append([]int(nil), in...), nil
}

// FLOPs implements Layer: normalise + affine ≈ 4 ops per element, plus
// the ReLU's comparison.
func (b BatchNormReLUGeom) FLOPs(in []int) int64 { return 5 * int64(shapeProduct(in)) }

// StateTensors implements Stateful.
func (b *BatchNormReLU) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunningMean, b.RunningVar}
}

// Forward implements Layer.
func (b *BatchNormReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != b.C {
		return nil, errShape(b.Name(), "(N,C,H,W)", x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spat := h * w
	b.y = ws.Obtain(b.y, n, c, h, w)
	xd, yd := x.Data(), b.y.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()

	if !train {
		// Evaluation: use running statistics.
		rm, rv := b.RunningMean.Data(), b.RunningVar.Data()
		for ch := 0; ch < c; ch++ {
			g, be, mu := gd[ch], bd[ch], rm[ch]
			inv := 1 / math.Sqrt(rv[ch]+b.Eps)
			for i := 0; i < n; i++ {
				off := (i*c + ch) * spat
				xs, ys := xd[off:][:spat], yd[off:][:spat]
				for s, v := range xs {
					ys[s] = max(g*(v-mu)*inv+be, 0)
				}
			}
		}
		return b.y, nil
	}

	b.updates++
	// Cumulative average until 1/Momentum updates, then EMA.
	m := b.Momentum
	if cma := 1 / float64(b.updates); cma > m {
		m = cma
	}
	b.xhat = ws.Obtain(b.xhat, n, c, h, w)
	xh := b.xhat.Data()
	if cap(b.std) < c {
		b.std, b.stats = make([]float64, c), make([]float64, c)
	}
	std, stats := b.std[:c], b.stats[:c]
	if cap(b.mask) < len(xd) {
		b.mask = make([]bool, len(xd))
	}
	mask := b.mask[:len(xd)]
	cnt := float64(n * spat)

	channelSums(stats, xd, nil, n, c, spat)
	rm, rv := b.RunningMean.Data(), b.RunningVar.Data()
	for ch, mean := range stats {
		mean /= cnt
		rm[ch] = (1-m)*rm[ch] + m*mean
		stats[ch] = mean
	}
	channelSums(std, xd, stats, n, c, spat)
	for ch, m2 := range std {
		variance := m2 / cnt
		rv[ch] = (1-m)*rv[ch] + m*variance
		std[ch] = math.Sqrt(variance + b.Eps)
	}
	for ch := 0; ch < c; ch++ {
		g, be, mean := gd[ch], bd[ch], stats[ch]
		inv := 1 / std[ch]
		for i := 0; i < n; i++ {
			off := (i*c + ch) * spat
			xs, hs, ys, ms := xd[off:][:spat], xh[off:][:spat], yd[off:][:spat], mask[off:][:spat]
			for s, v := range xs {
				xn := (v - mean) * inv
				hs[s] = xn
				z := g*xn + be
				ys[s] = max(z, 0)
				ms[s] = z > 0
			}
		}
	}
	b.mask, b.inShape = mask, append(b.inShape[:0], n, c, h, w)
	return b.y, nil
}

// channelQuad returns the four channels from ch on, the last repeated past
// c: the reductions sum four channels per sweep, with one accumulator each,
// and a repeated channel is summed twice and stored once.
func channelQuad(ch, c int) [4]int {
	return [4]int{ch, min(ch+1, c-1), min(ch+2, c-1), min(ch+3, c-1)}
}

// channelSums sets dst[ch] to the sum over channel ch of an (n, c, spat)
// batch x in ascending (sample, position) — of x itself when center is
// nil, else of (x − center[ch])². Four channels share a sweep, each with
// its own accumulator, so the sums do not wait on one another.
func channelSums(dst, x, center []float64, n, c, spat int) {
	for ch := 0; ch < c; ch += 4 {
		q := channelQuad(ch, c)
		var s0, s1, s2, s3 float64
		for i := 0; i < n; i++ {
			x0 := x[(i*c+q[0])*spat:][:spat]
			x1 := x[(i*c+q[1])*spat:][:spat]
			x2 := x[(i*c+q[2])*spat:][:spat]
			x3 := x[(i*c+q[3])*spat:][:spat]
			if center == nil {
				for s, v := range x0 {
					s0 += v
					s1 += x1[s]
					s2 += x2[s]
					s3 += x3[s]
				}
				continue
			}
			m0, m1, m2, m3 := center[q[0]], center[q[1]], center[q[2]], center[q[3]]
			for s, v := range x0 {
				d0, d1, d2, d3 := v-m0, x1[s]-m1, x2[s]-m2, x3[s]-m3
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
		}
		for l, s := range [4]float64{s0, s1, s2, s3} {
			if ch+l < c {
				dst[ch+l] = s
			}
		}
	}
}

// reluGrad passes g where the pre-activation was positive and clears it to +0
// elsewhere, by a bit-AND: no branch on the data.
func reluGrad(g float64, pos bool) float64 {
	var keep uint64
	if pos {
		keep = 1
	}
	return math.Float64frombits(math.Float64bits(g) & -keep)
}

// Backward implements Layer using the standard batch-norm gradient of the
// rectified output gradient dy = relu'(z)·grad:
//
//	dx̂ = dy·γ
//	dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂)) / std
func (b *BatchNormReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if b.xhat == nil {
		return nil, fmt.Errorf("nn: %s: Backward without prior training Forward", b.Name())
	}
	n, c, h, w := b.inShape[0], b.inShape[1], b.inShape[2], b.inShape[3]
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c || grad.Dim(2) != h || grad.Dim(3) != w {
		return nil, errShape(b.Name()+" backward", b.inShape, grad.Shape())
	}
	spat := h * w
	cnt := float64(n * spat)
	b.dx = ws.Obtain(b.dx, n, c, h, w)
	gd, xh, dd, mask := grad.Data(), b.xhat.Data(), b.dx.Data(), b.mask
	gamma := b.Gamma.Value.Data()
	ggrad, bgrad := b.Gamma.Grad.Data(), b.Beta.Grad.Data()

	for ch := 0; ch < c; ch += 4 {
		q := channelQuad(ch, c)
		var dy0, dy1, dy2, dy3, dh0, dh1, dh2, dh3 float64
		for i := 0; i < n; i++ {
			o0, o1, o2, o3 := (i*c+q[0])*spat, (i*c+q[1])*spat, (i*c+q[2])*spat, (i*c+q[3])*spat
			g0, g1, g2, g3 := gd[o0:][:spat], gd[o1:][:spat], gd[o2:][:spat], gd[o3:][:spat]
			m0, m1, m2, m3 := mask[o0:][:spat], mask[o1:][:spat], mask[o2:][:spat], mask[o3:][:spat]
			h0, h1, h2, h3 := xh[o0:][:spat], xh[o1:][:spat], xh[o2:][:spat], xh[o3:][:spat]
			for s := range g0 {
				d0, d1, d2, d3 := reluGrad(g0[s], m0[s]), reluGrad(g1[s], m1[s]), reluGrad(g2[s], m2[s]), reluGrad(g3[s], m3[s])
				dy0 += d0
				dh0 += d0 * h0[s]
				dy1 += d1
				dh1 += d1 * h1[s]
				dy2 += d2
				dh2 += d2 * h2[s]
				dy3 += d3
				dh3 += d3 * h3[s]
			}
		}
		sums := [4][2]float64{{dy0, dh0}, {dy1, dh1}, {dy2, dh2}, {dy3, dh3}}
		for l := 0; l < 4 && ch+l < c; l++ {
			sumDy, sumDyXhat := sums[l][0], sums[l][1]
			ggrad[ch+l] += sumDyXhat
			bgrad[ch+l] += sumDy
			meanDy := sumDy / cnt
			meanDyXhat := sumDyXhat / cnt
			scale := gamma[ch+l] / b.std[ch+l]
			for i := 0; i < n; i++ {
				off := (i*c + ch + l) * spat
				gs, ms, hs, ds := gd[off:][:spat], mask[off:][:spat], xh[off:][:spat], dd[off:][:spat]
				for s, g := range gs {
					ds[s] = scale * (reluGrad(g, ms[s]) - meanDy - hs[s]*meanDyXhat)
				}
			}
		}
	}
	return b.dx, nil
}

// Release implements Releaser.
func (b *BatchNormReLU) Release() {
	release(b.xhat, b.y, b.dx)
	b.xhat = nil
}
