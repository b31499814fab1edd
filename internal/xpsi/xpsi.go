// Package xpsi reimplements the paper's state-of-the-art baseline, the
// X-ray Free Electron Laser-based Protein Structure Identifier of Olaya
// et al. (paper §4.4): an autoencoder learns a compact representation of
// the diffraction patterns and a k-nearest-neighbours classifier predicts
// the conformation in that feature space. XPSI is a fixed, hand-tuned
// pipeline — fast to train once (one model instead of a 100-network
// search) but less robust on noisy low-beam images and unable to scale
// across accelerators, which is exactly the Table 3 comparison.
package xpsi

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"a4nn/internal/dataset"
	"a4nn/internal/nn"
	"a4nn/internal/sched"
	"a4nn/internal/tensor"
)

// Config parameterises the XPSI pipeline.
type Config struct {
	// Hidden is the autoencoder's latent dimensionality (default 32).
	Hidden int
	// Epochs of autoencoder training (default 30).
	Epochs int
	// BatchSize for autoencoder SGD (default 32).
	BatchSize int
	// LR is the autoencoder learning rate (default 0.01).
	LR float64
	// K is the number of neighbours for classification (default 1).
	K int
}

// DefaultConfig returns the defaults above.
func DefaultConfig() Config {
	return Config{Hidden: 32, Epochs: 30, BatchSize: 32, LR: 0.01, K: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Hidden > 0 {
		d.Hidden = c.Hidden
	}
	if c.Epochs > 0 {
		d.Epochs = c.Epochs
	}
	if c.BatchSize > 0 {
		d.BatchSize = c.BatchSize
	}
	if c.LR > 0 {
		d.LR = c.LR
	}
	if c.K > 0 {
		d.K = c.K
	}
	return d
}

// Pipeline is a trained XPSI model.
type Pipeline struct {
	cfg      Config
	inputDim int
	encoder  *nn.Network
	features [][]float64 // training features
	labels   []int
	// TrainFLOPs accumulates the floating-point work of training, for
	// the simulated wall-time accounting of Table 3.
	TrainFLOPs int64
}

// Train fits the autoencoder on the training set and indexes its feature
// space for kNN classification.
func Train(train *dataset.Dataset, cfg Config, seed int64) (*Pipeline, error) {
	c := cfg.withDefaults()
	if train == nil || train.Len() == 0 {
		return nil, fmt.Errorf("xpsi: empty training set")
	}
	if c.K > train.Len() {
		return nil, fmt.Errorf("xpsi: K=%d exceeds training size %d", c.K, train.Len())
	}
	dim := 1
	for _, d := range train.SampleShape() {
		dim *= d
	}
	rng := rand.New(rand.NewSource(seed))

	// Autoencoder: dim → hidden → dim with a linear bottleneck. A linear
	// autoencoder learns the principal subspace of the patterns, which
	// preserves the neighbourhood structure kNN depends on (a ReLU
	// bottleneck discards half the feature space and collapses it).
	enc, err := nn.NewDense(rng, dim, c.Hidden)
	if err != nil {
		return nil, err
	}
	dec, err := nn.NewDense(rng, c.Hidden, dim)
	if err != nil {
		return nil, err
	}
	ae, err := nn.NewNetwork("xpsi-ae", []int{dim}, enc, dec)
	if err != nil {
		return nil, err
	}
	opt, err := nn.NewSGD(c.LR, 0.9)
	if err != nil {
		return nil, err
	}
	var mse nn.MSE

	flat := train.X.MustReshape(train.Len(), dim)
	p := &Pipeline{cfg: c, inputDim: dim}
	perSample := ae.Layers[0].FLOPs([]int{dim}) + ae.Layers[1].FLOPs([]int{c.Hidden})
	for epoch := 0; epoch < c.Epochs; epoch++ {
		order := rng.Perm(train.Len())
		for lo := 0; lo < len(order); lo += c.BatchSize {
			hi := lo + c.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := tensor.New(hi-lo, dim)
			for i := lo; i < hi; i++ {
				copy(batch.Data()[(i-lo)*dim:(i-lo+1)*dim], flat.Data()[order[i]*dim:(order[i]+1)*dim])
			}
			out, err := ae.Forward(batch, true)
			if err != nil {
				return nil, fmt.Errorf("xpsi: epoch %d: %w", epoch+1, err)
			}
			_, grad, err := mse.Loss(out, batch)
			if err != nil {
				return nil, err
			}
			if err := ae.Backward(grad); err != nil {
				return nil, err
			}
			opt.Step(ae.Params())
		}
		p.TrainFLOPs += 3 * perSample * int64(train.Len()) // fwd + ~2× bwd
	}

	// Freeze the encoder for feature extraction.
	encNet, err := nn.NewNetwork("xpsi-enc", []int{dim}, enc)
	if err != nil {
		return nil, err
	}
	p.encoder = encNet
	p.features = make([][]float64, train.Len())
	p.labels = append([]int(nil), train.Labels...)
	feats, err := p.encode(flat)
	if err != nil {
		return nil, err
	}
	p.features = feats
	// Indexing cost: one encoder pass over the training set.
	p.TrainFLOPs += perSample * int64(train.Len())
	return p, nil
}

// encode maps flattened samples (N, dim) to feature vectors.
func (p *Pipeline) encode(flat *tensor.Tensor) ([][]float64, error) {
	out, err := p.encoder.Forward(flat, false)
	if err != nil {
		return nil, err
	}
	n, h := out.Dim(0), out.Dim(1)
	feats := make([][]float64, n)
	for i := 0; i < n; i++ {
		feats[i] = append([]float64(nil), out.Data()[i*h:(i+1)*h]...)
	}
	return feats, nil
}

// Classify predicts the label of each sample in ds by majority vote among
// the K nearest training features (Euclidean distance), parallelised over
// query samples.
func (p *Pipeline) Classify(ds *dataset.Dataset) ([]int, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("xpsi: empty query set")
	}
	dim := 1
	for _, d := range ds.SampleShape() {
		dim *= d
	}
	if dim != p.inputDim {
		return nil, fmt.Errorf("xpsi: query dimension %d does not match training %d", dim, p.inputDim)
	}
	feats, err := p.encode(ds.X.MustReshape(ds.Len(), dim))
	if err != nil {
		return nil, err
	}
	preds := make([]int, len(feats))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(feats) + workers - 1) / workers
	for lo := 0; lo < len(feats); lo += chunk {
		hi := lo + chunk
		if hi > len(feats) {
			hi = len(feats)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				preds[i] = p.vote(feats[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return preds, nil
}

// vote returns the majority label among the K nearest training features.
func (p *Pipeline) vote(q []float64) int {
	type nd struct {
		d   float64
		lbl int
	}
	nds := make([]nd, len(p.features))
	for i, f := range p.features {
		s := 0.0
		for j := range f {
			d := f[j] - q[j]
			s += d * d
		}
		nds[i] = nd{d: s, lbl: p.labels[i]}
	}
	sort.Slice(nds, func(a, b int) bool { return nds[a].d < nds[b].d })
	counts := map[int]int{}
	best, bestCount := 0, -1
	for _, n := range nds[:p.cfg.K] {
		counts[n.lbl]++
		if counts[n.lbl] > bestCount {
			best, bestCount = n.lbl, counts[n.lbl]
		}
	}
	return best
}

// Evaluate returns classification accuracy (percent) on a labelled set.
func (p *Pipeline) Evaluate(ds *dataset.Dataset) (float64, error) {
	preds, err := p.Classify(ds)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, pr := range preds {
		if pr == ds.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(preds)), nil
}

// SimSeconds converts the pipeline's training work into simulated wall
// seconds on the device, the Table 3 wall-time accounting.
func (p *Pipeline) SimSeconds(dev sched.Device) float64 {
	return float64(p.TrainFLOPs) / dev.Throughput
}
