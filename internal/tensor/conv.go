package tensor

import "fmt"

// convGeom is the geometry of one convolution over an NCHW batch.
type convGeom struct {
	n, c, h, w, oh, ow  int
	kh, kw, stride, pad int
	sample, ckk, spat   int // c·h·w, column-matrix rows c·kh·kw, columns per sample oh·ow
}

// newConvGeom validates t, a (C, H, W) sample when rank is 3 or an
// (N, C, H, W) batch when it is 4, against the kernel.
func newConvGeom(op string, t *Tensor, rank, kh, kw, stride, pad int) (convGeom, error) {
	if t.Rank() != rank {
		return convGeom{}, fmt.Errorf("tensor: %s requires a rank-%d (…,C,H,W) tensor, got %v", op, rank, t.shape)
	}
	d := t.shape[rank-3:]
	g := convGeom{n: shapeElems(t.shape[:rank-3]), c: d[0], h: d[1], w: d[2], kh: kh, kw: kw, stride: stride, pad: pad}
	var err error
	if g.oh, err = ConvOutSize(g.h, kh, stride, pad); err != nil {
		return convGeom{}, err
	}
	if g.ow, err = ConvOutSize(g.w, kw, stride, pad); err != nil {
		return convGeom{}, err
	}
	g.sample, g.ckk, g.spat = g.c*g.h*g.w, g.c*kh*kw, g.oh*g.ow
	return g, nil
}

// fusedOperands validates what both fused kernels share — filters w (OutC,
// C·kh·kw), output-side batch out (N, OutC, oh, ow), tiles — and returns OutC.
func (g convGeom) fusedOperands(op string, w, out, tiles *Tensor) (int, error) {
	if w.Rank() != 2 || w.shape[1] != g.ckk {
		return 0, fmt.Errorf("tensor: %s expects filters of shape (OutC,%d), got %v", op, g.ckk, w.shape)
	}
	outC := w.shape[0]
	if out.Rank() != 4 || out.shape[0] != g.n || out.shape[1] != outC || out.shape[2] != g.oh || out.shape[3] != g.ow {
		return 0, fmt.Errorf("tensor: %s expects an output batch of shape (%d,%d,%d,%d), got %v", op, g.n, outC, g.oh, g.ow, out.shape)
	}
	if need := ConvTiles(g.n) * g.ckk * g.spat; len(tiles.data) < need {
		return 0, fmt.Errorf("tensor: %s needs %d scratch elements, got %d", op, need, len(tiles.data))
	}
	return outC, nil
}

// ConvTiles returns how many (C·kh·kw, oh·ow) scratch tiles the fused
// kernels need for a batch of n samples: one per parallel chunk.
func ConvTiles(n int) int {
	chunk := rangeChunk(max(n, 1), 2) // an empty batch needs no tile
	return (n + chunk - 1) / chunk
}

// ConvForward computes y = conv(x, w) + bias for x (N, C, H, W), filters w
// (OutC, C·kh·kw), bias (OutC) and y (N, OutC, oh, ow), overwriting y, in
// one parallelRange over samples: each task unrolls a sample into its
// (C·kh·kw, oh·ow) tile and multiplies the tile while it is cache-resident,
// straight into that sample's slice of y. tiles is caller-owned scratch of
// ConvTiles(N) tiles. A non-nil cols (C·kh·kw, N·oh·ow) also receives the
// columns in the Im2ColBatchInto layout, the cache a training pass keeps
// for the weight gradient; evaluation passes nil.
//
// k is never split and each output element is accumulated by one worker in
// ascending p, like the naive i-p-j loop, so results are bitwise identical
// at any worker count. The kernel counters book one OutC×C·kh·kw·N·oh·ow product.
func ConvForward(x, w, bias, y, cols, tiles *Tensor, kh, kw, stride, pad int) error {
	g, err := newConvGeom("ConvForward", x, 4, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	outC, err := g.fusedOperands("ConvForward", w, y, tiles)
	if err != nil {
		return err
	}
	if bias.Rank() != 1 || bias.shape[0] != outC {
		return fmt.Errorf("tensor: ConvForward expects bias of shape (%d), got %v", outC, bias.shape)
	}
	if cols != nil && (cols.Rank() != 2 || cols.shape[0] != g.ckk || cols.shape[1] != g.n*g.spat) {
		return fmt.Errorf("tensor: ConvForward expects cols of shape (%d,%d), got %v", g.ckk, g.n*g.spat, cols.shape)
	}
	countMatMul(outC, g.n*g.spat, g.ckk)
	chunk, tileLen := rangeChunk(g.n, 2), g.ckk*g.spat
	parallelRange(g.n, 2, func(lo, hi int) {
		tile := tiles.data[lo/chunk*tileLen:][:tileLen]
		for i := lo; i < hi; i++ {
			im2colStrided(x.data[i*g.sample:(i+1)*g.sample], tile, 0, g.spat, g)
			yi := y.data[i*outC*g.spat : (i+1)*outC*g.spat]
			clear(yi)
			gemmPanel(w.data, tile, yi, g.ckk, g.spat, 0, outC, 0, g.spat)
			for f, b := range bias.data {
				row := yi[f*g.spat : (f+1)*g.spat]
				for j := range row {
					row[j] += b
				}
			}
			if cols != nil {
				for r := 0; r < g.ckk; r++ {
					copy(cols.data[(r*g.n+i)*g.spat:][:g.spat], tile[r*g.spat:])
				}
			}
		}
	})
	return nil
}

// ConvBackwardData computes the input gradient dx (N, C, H, W) from the
// output gradient grad (N, OutC, oh, ow) and the filters w, overwriting dx:
// per sample, Wᵀ·grad_i lands in a scratch tile that is scattered into dx_i
// at once. tiles and the reproducibility argument are as for ConvForward;
// the counters book one C·kh·kw×OutC · OutC×N·oh·ow product.
func ConvBackwardData(grad, w, dx, tiles *Tensor, kh, kw, stride, pad int) error {
	g, err := newConvGeom("ConvBackwardData", dx, 4, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	outC, err := g.fusedOperands("ConvBackwardData", w, grad, tiles)
	if err != nil {
		return err
	}
	countMatMul(g.ckk, g.n*g.spat, outC)
	chunk, tileLen := rangeChunk(g.n, 2), g.ckk*g.spat
	parallelRange(g.n, 2, func(lo, hi int) {
		tile := tiles.data[lo/chunk*tileLen:][:tileLen]
		for i := lo; i < hi; i++ {
			clear(tile)
			gemmTransAPanel(w.data, grad.data[i*outC*g.spat:(i+1)*outC*g.spat], tile, outC, g.ckk, g.spat, 0, g.ckk, 0, g.spat)
			out := dx.data[i*g.sample : (i+1)*g.sample]
			clear(out)
			col2imStrided(tile, out, 0, g.spat, g)
		}
	})
	return nil
}
