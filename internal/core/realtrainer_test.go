package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/xfel"
)

// highBeamSplit16 simulates n 16×16 high-beam diffraction patterns and
// splits them 80/20, the dataset of the real-training tests.
func highBeamSplit16(t *testing.T, n int) (train, val *dataset.Dataset) {
	t.Helper()
	params := xfel.DefaultSimulatorParams()
	params.Size = 16
	sim, err := xfel.NewSimulator(3, params)
	if err != nil {
		t.Fatal(err)
	}
	pats, err := sim.GenerateBatch(1, n, xfel.HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		t.Fatal(err)
	}
	train, val, err = ds.Split(0.8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return train, val
}

// TestRealTrainerGoldenBits pins the numerics of real training end to
// end: a fixed genome trained two epochs at a fixed seed must reproduce
// the loss and validation accuracy recorded before the convolution
// kernels were fused, bit for bit. The training accuracy column was
// re-recorded when it became the running accuracy of the epoch's own
// training forward passes (it had been a second, evaluation-mode sweep
// over the training split); the loss, validation accuracy and state
// digest did not move. The values hold on amd64 only: other ports fuse
// multiply-adds, which rounds differently.
func TestRealTrainerGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64")
	}
	train, val := highBeamSplit16(t, 120)
	// Batch 20 leaves a ragged last batch in both splits (96 and 24).
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode:    genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
		BatchSize: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.Parse("1011011|0110101|1110110", 4)
	if err != nil {
		t.Fatal(err)
	}
	model, err := trainer.NewModel(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ loss, trainAcc, valAcc uint64 }{
		{0x3fe76fd9f413126f, 0x4049000000000000, 0x4049000000000000},
		{0x3fe24851debc124e, 0x405302aaaaaaaaab, 0x4050aaaaaaaaaaab},
	}
	for e, w := range want {
		m, err := model.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{math.Float64bits(m.TrainLoss), math.Float64bits(m.TrainAccuracy), math.Float64bits(m.ValAccuracy)}
		if got != [3]uint64{w.loss, w.trainAcc, w.valAcc} {
			t.Errorf("epoch %d: loss/trainAcc/valAcc bits {%#x, %#x, %#x} (%v %v %v), want {%#x, %#x, %#x}",
				e+1, got[0], got[1], got[2], m.TrainLoss, m.TrainAccuracy, m.ValAccuracy, w.loss, w.trainAcc, w.valAcc)
		}
	}
	// The checkpoint bytes after epoch 2: parameters (conv W, B, γ, β in
	// unit order) and batch-norm running statistics, gob-encoded. A
	// checkpoint written by an earlier build must load into this one, so
	// these bytes cannot move when the kernels are rewritten.
	state, err := model.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(state)
	if got, want := h.Sum64(), uint64(0x7e904dd376e08af1); got != want {
		t.Errorf("SaveState after epoch 2: %d bytes, fnv64a %#x, want %#x", len(state), got, want)
	}
}

// TestTrainAccuracyTalliesForwardPasses holds EpochMetrics.TrainAccuracy
// to its definition: the running accuracy of the epoch's own train-mode
// forward passes, each batch read before its optimizer step, as an
// integer tally 100·Σcorrect / Σn. A twin model (same genome, same seed)
// is trained by hand, batch by batch, beside the real one; the loss and
// validation accuracy must agree too, so the twin stays in step. The
// training split (96 samples at batch 20) ends in a ragged batch of 16.
func TestTrainAccuracyTalliesForwardPasses(t *testing.T) {
	train, val := highBeamSplit16(t, 120)
	const batchSize = 20
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode:    genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
		BatchSize: batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()%batchSize == 0 {
		t.Fatalf("training split of %d has no ragged batch at %d", train.Len(), batchSize)
	}
	g, err := genome.Parse("1011011|0110101|1110110", 4)
	if err != nil {
		t.Fatal(err)
	}
	model, err := trainer.NewModel(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	twinModel, err := trainer.NewModel(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	twin := twinModel.(*realModel)
	var ce nn.SoftmaxCrossEntropy
	for epoch := 1; epoch <= 3; epoch++ {
		got, err := model.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		batches, err := train.Batches(batchSize, twin.rng)
		if err != nil {
			t.Fatal(err)
		}
		correct, seen, lossSum := 0, 0, 0.0
		for _, b := range batches {
			logits, err := twin.net.Forward(b.X, true)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := nn.Accuracy(logits, b.Labels)
			if err != nil {
				t.Fatal(err)
			}
			correct += int(math.Round(acc * float64(len(b.Labels)) / 100))
			seen += len(b.Labels)
			loss, grad, err := ce.Loss(logits, b.Labels)
			if err != nil {
				t.Fatal(err)
			}
			lossSum += loss
			if err := twin.net.Backward(grad); err != nil {
				t.Fatal(err)
			}
			twin.opt.Step(twin.net.Params())
		}
		valAcc, err := nn.EvaluateClassifier(twin.net, trainer.valBatches)
		if err != nil {
			t.Fatal(err)
		}
		want := EpochMetrics{
			TrainLoss:     lossSum / float64(len(batches)),
			TrainAccuracy: 100 * float64(correct) / float64(seen),
			ValAccuracy:   valAcc,
		}
		if math.Float64bits(got.TrainAccuracy) != math.Float64bits(want.TrainAccuracy) ||
			math.Float64bits(got.TrainLoss) != math.Float64bits(want.TrainLoss) ||
			math.Float64bits(got.ValAccuracy) != math.Float64bits(want.ValAccuracy) {
			t.Errorf("epoch %d: got %+v, want %+v (%d of %d training samples correct)", epoch, got, want, correct, seen)
		}
	}
}

// TestMicroGoldenBits is TestRealTrainerGoldenBits for the micro space,
// recorded before the two search drivers were merged: a surrogate
// micro search's record IDs, fitness bits and termination epochs (the
// operators' rng draw order), and one real-training epoch of a fixed
// cell (DecodeMicro's weight draw order). Its training accuracy was
// re-recorded with TestRealTrainerGoldenBits'.
func TestMicroGoldenBits(t *testing.T) {
	cfg := microTestConfig()
	cfg.NAS = nsga.Config{PopulationSize: 6, Offspring: 6, Generations: 4, Seed: 11}
	res, err := RunMicro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, m := range res.Models {
		fmt.Fprintf(h, "%s|%016x|%d\n", m.Record.ID, math.Float64bits(m.Fitness), m.Record.TerminationEpoch)
	}
	if got, want := h.Sum64(), uint64(0x3f2d55da3c7e23a0); got != want {
		t.Errorf("micro search fingerprint %#x over %d models, want %#x", got, len(res.Models), want)
	}

	if runtime.GOARCH != "amd64" {
		t.Skip("training bits recorded on amd64")
	}
	train, val := highBeamSplit16(t, 120)
	trainer, err := NewRealMicroTrainer(train, val, RealTrainerConfig{
		Decode:    genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8}, NumClasses: 2},
		BatchSize: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.ParseMicro("0.conv3+0.max3;1.conv5+0.id;1.avg3+2.conv3")
	if err != nil {
		t.Fatal(err)
	}
	model, err := trainer.NewModel(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	got := [3]uint64{math.Float64bits(m.TrainLoss), math.Float64bits(m.TrainAccuracy), math.Float64bits(m.ValAccuracy)}
	if want := [3]uint64{0x3fe63651ebe35198, 0x404a900000000000, 0x4046eaaaaaaaaaab}; got != want {
		t.Errorf("loss/trainAcc/valAcc bits %#x (%v %v %v), want %#x", got, m.TrainLoss, m.TrainAccuracy, m.ValAccuracy, want)
	}
}
