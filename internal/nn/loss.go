package nn

import (
	"fmt"
	"math"

	"a4nn/internal/tensor"
)

// SoftmaxCrossEntropy fuses the softmax activation and cross-entropy loss
// for classification, which is both faster and numerically stabler than
// composing the two. Logits have shape (N, K); labels are class indices.
type SoftmaxCrossEntropy struct{}

// Loss computes the mean cross-entropy over the batch and the gradient of
// that loss with respect to the logits: (softmax(logits) − onehot) / N.
func (s SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor, err error) {
	if logits.Rank() != 2 {
		return 0, nil, fmt.Errorf("nn: cross-entropy expects (N,K) logits, got %v", logits.Shape())
	}
	grad = tensor.New(logits.Dim(0), logits.Dim(1))
	loss, err = s.LossInto(logits, labels, grad)
	if err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// LossInto is Loss writing the gradient into the caller-provided grad of
// shape (N, K), so the training loop can reuse one pooled buffer across
// batches instead of allocating per step. Every element of grad is
// overwritten on success; on error its contents are unspecified.
func (SoftmaxCrossEntropy) LossInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) (loss float64, err error) {
	if logits.Rank() != 2 {
		return 0, fmt.Errorf("nn: cross-entropy expects (N,K) logits, got %v", logits.Shape())
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, fmt.Errorf("nn: %d labels for batch of %d", len(labels), n)
	}
	if !grad.SameShape(logits) {
		return 0, fmt.Errorf("nn: cross-entropy grad shape %v, want %v", grad.Shape(), logits.Shape())
	}
	ld, gd := logits.Data(), grad.Data()
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", lbl, k)
		}
		row := ld[i*k : (i+1)*k]
		// Log-sum-exp with max shift for stability.
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += tensor.Exp(v - max)
		}
		logZ := max + math.Log(sum)
		loss += logZ - row[lbl]
		gRow := gd[i*k : (i+1)*k]
		for j, v := range row {
			p := tensor.Exp(v - logZ)
			if j == lbl {
				p -= 1
			}
			gRow[j] = p * invN
		}
	}
	return loss * invN, nil
}

// Accuracy returns the fraction of rows whose argmax matches the label,
// in percent (0–100) to match the paper's fitness units.
func Accuracy(logits *tensor.Tensor, labels []int) (float64, error) {
	correct, err := countCorrect(logits, labels)
	if err != nil || len(labels) == 0 {
		return 0, err
	}
	return 100 * float64(correct) / float64(len(labels)), nil
}

// countCorrect returns how many rows' argmax matches the label.
func countCorrect(logits *tensor.Tensor, labels []int) (int, error) {
	if logits.Rank() != 2 {
		return 0, fmt.Errorf("nn: accuracy expects (N,K) logits, got %v", logits.Shape())
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, fmt.Errorf("nn: %d labels for batch of %d", len(labels), n)
	}
	ld := logits.Data()
	correct := 0
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return correct, nil
}

// MSE is the mean squared error loss for regression and autoencoders.
type MSE struct{}

// Loss returns mean((pred−target)²) over all elements and its gradient
// with respect to pred.
func (MSE) Loss(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor, err error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	grad = tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	n := float64(len(pd))
	if n == 0 {
		return 0, grad, nil
	}
	for i := range pd {
		d := pd[i] - td[i]
		loss += d * d
		gd[i] = 2 * d / n
	}
	return loss / n, grad, nil
}
