// Package dataset adapts generated XFEL diffraction patterns (or any
// labelled images) into the tensors and mini-batches consumed by the NN
// training engine: stratified train/test splitting, shuffled batching,
// and the 80/20 protocol used by the paper (§3.2).
package dataset

import (
	"fmt"
	"math/rand"

	"a4nn/internal/nn"
	"a4nn/internal/tensor"
	"a4nn/internal/xfel"
)

// Dataset is an in-memory labelled image collection stored as one NCHW
// tensor plus integer labels.
type Dataset struct {
	X          *tensor.Tensor // (N, C, H, W)
	Labels     []int
	NumClasses int
}

// FromPatterns packs diffraction patterns into a dataset with one channel.
// All patterns must share a detector size.
func FromPatterns(ps []*xfel.Pattern) (*Dataset, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("dataset: no patterns")
	}
	size := ps[0].Size
	x := tensor.New(len(ps), 1, size, size)
	labels := make([]int, len(ps))
	classes := 0
	for i, p := range ps {
		if p.Size != size {
			return nil, fmt.Errorf("dataset: pattern %d has size %d, want %d", i, p.Size, size)
		}
		if len(p.Pixels) != size*size {
			return nil, fmt.Errorf("dataset: pattern %d has %d pixels for size %d", i, len(p.Pixels), size)
		}
		copy(x.Data()[i*size*size:(i+1)*size*size], p.Pixels)
		labels[i] = int(p.Label)
		if labels[i] < 0 {
			return nil, fmt.Errorf("dataset: pattern %d has negative label %d", i, labels[i])
		}
		if labels[i]+1 > classes {
			classes = labels[i] + 1
		}
	}
	return &Dataset{X: x, Labels: labels, NumClasses: classes}, nil
}

// New wraps a pre-built tensor and labels after validation.
func New(x *tensor.Tensor, labels []int, numClasses int) (*Dataset, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("dataset: X must have rank ≥ 2, got %v", x.Shape())
	}
	if x.Dim(0) != len(labels) {
		return nil, fmt.Errorf("dataset: %d samples but %d labels", x.Dim(0), len(labels))
	}
	for i, l := range labels {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("dataset: label %d at index %d out of range [0,%d)", l, i, numClasses)
		}
	}
	return &Dataset{X: x, Labels: labels, NumClasses: numClasses}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleShape returns the per-sample shape (excluding the batch
// dimension).
func (d *Dataset) SampleShape() []int { return d.X.Shape()[1:] }

// Subset returns a new dataset holding copies of the samples at idx.
func (d *Dataset) Subset(idx []int) (*Dataset, error) {
	sampleLen := d.X.Len() / d.X.Dim(0)
	shape := append([]int{len(idx)}, d.SampleShape()...)
	x := tensor.New(shape...)
	labels := make([]int, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, fmt.Errorf("dataset: subset index %d out of range [0,%d)", j, d.Len())
		}
		copy(x.Data()[i*sampleLen:(i+1)*sampleLen], d.X.Data()[j*sampleLen:(j+1)*sampleLen])
		labels[i] = d.Labels[j]
	}
	return &Dataset{X: x, Labels: labels, NumClasses: d.NumClasses}, nil
}

// Split performs a stratified train/test split: each class contributes
// trainFrac of its samples (rounded down, at least one sample per side
// when the class has ≥ 2). The shuffle within each class is drawn from
// rng. The paper uses trainFrac = 0.8.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac must be in (0,1), got %v", trainFrac)
	}
	byClass := make(map[int][]int)
	for i, l := range d.Labels {
		byClass[l] = append(byClass[l], i)
	}
	var trainIdx, testIdx []int
	for c := 0; c < d.NumClasses; c++ {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(float64(len(idx)) * trainFrac)
		if len(idx) >= 2 {
			if cut == 0 {
				cut = 1
			}
			if cut == len(idx) {
				cut = len(idx) - 1
			}
		}
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil, fmt.Errorf("dataset: split produced an empty side (n=%d, frac=%v)", d.Len(), trainFrac)
	}
	train, err = d.Subset(trainIdx)
	if err != nil {
		return nil, nil, err
	}
	test, err = d.Subset(testIdx)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Batches cuts the dataset into mini-batches of at most batchSize
// samples. When rng is non-nil the sample order is shuffled first.
func (d *Dataset) Batches(batchSize int, rng *rand.Rand) ([]nn.Batch, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("dataset: batch size must be positive, got %d", batchSize)
	}
	var batches []nn.Batch
	for lo := 0; lo < d.Len(); lo += batchSize {
		m := min(batchSize, d.Len()-lo)
		shape := append([]int{m}, d.SampleShape()...)
		batches = append(batches, nn.Batch{X: tensor.New(shape...), Labels: make([]int, m)})
	}
	d.ShuffleInto(batches, rng)
	return batches, nil
}

// ShuffleInto refills batches that Batches cut from d, in place, with
// the shuffle and the contents a fresh Batches call would draw from rng.
func (d *Dataset) ShuffleInto(batches []nn.Batch, rng *rand.Rand) {
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, b := range batches {
		dst, sampleLen := b.X.Data(), b.X.Len()/len(b.Labels)
		for i, j := range order[:len(b.Labels)] {
			copy(dst[i*sampleLen:(i+1)*sampleLen], d.X.Data()[j*sampleLen:(j+1)*sampleLen])
			b.Labels[i] = d.Labels[j]
		}
		order = order[len(b.Labels):]
	}
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}
