package nn

import (
	"fmt"

	"a4nn/internal/tensor"
)

// Batch is one mini-batch of classification data: images (N, C, H, W) or
// feature vectors (N, D), plus integer class labels.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// TrainEpoch runs one optimisation epoch: for every batch, a forward pass,
// softmax cross-entropy, a backward pass, and an optimizer step. It
// returns the mean loss across batches and the training accuracy in
// percent: the running accuracy of the epoch's own train-mode forward
// passes, each batch scored before its step, 100·Σcorrect / Σsamples over
// the epoch's batches.
func TrainEpoch(net *Network, opt *SGD, batches []Batch) (meanLoss, trainAcc float64, err error) {
	if len(batches) == 0 {
		return 0, 0, fmt.Errorf("nn: TrainEpoch with no batches")
	}
	var ce SoftmaxCrossEntropy
	// One pooled loss-gradient buffer serves every batch of the epoch.
	var grad *tensor.Tensor
	defer func() { ws.Put(grad) }()
	correct, seen := 0, 0
	for bi, b := range batches {
		logits, err := net.Forward(b.X, true)
		if err != nil {
			return 0, 0, fmt.Errorf("nn: batch %d: %w", bi, err)
		}
		if logits.Rank() != 2 {
			return 0, 0, fmt.Errorf("nn: batch %d: network produced rank-%d logits", bi, logits.Rank())
		}
		c, err := countCorrect(logits, b.Labels)
		if err != nil {
			return 0, 0, fmt.Errorf("nn: batch %d: %w", bi, err)
		}
		correct += c
		seen += len(b.Labels)
		grad = ws.Obtain(grad, logits.Dim(0), logits.Dim(1))
		loss, err := ce.LossInto(logits, b.Labels, grad)
		if err != nil {
			return 0, 0, fmt.Errorf("nn: batch %d: %w", bi, err)
		}
		if err := net.Backward(grad); err != nil {
			return 0, 0, fmt.Errorf("nn: batch %d: %w", bi, err)
		}
		opt.Step(net.Params())
		meanLoss += loss
	}
	return meanLoss / float64(len(batches)), 100 * float64(correct) / float64(seen), nil
}

// EvaluateClassifier computes classification accuracy (percent) over the
// batches with the network in evaluation mode.
func EvaluateClassifier(net *Network, batches []Batch) (accuracy float64, err error) {
	total, correctWeighted := 0, 0.0
	for bi, b := range batches {
		logits, err := net.Forward(b.X, false)
		if err != nil {
			return 0, fmt.Errorf("nn: eval batch %d: %w", bi, err)
		}
		acc, err := Accuracy(logits, b.Labels)
		if err != nil {
			return 0, fmt.Errorf("nn: eval batch %d: %w", bi, err)
		}
		n := len(b.Labels)
		correctWeighted += acc * float64(n)
		total += n
	}
	if total == 0 {
		return 0, fmt.Errorf("nn: EvaluateClassifier with no samples")
	}
	return correctWeighted / float64(total), nil
}
