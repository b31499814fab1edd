package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/tensor"
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
// multiply-adds, which rounds differently. They hold for every set of
// GEMM kernels the host runs, each trained in a subtest of its own.
func TestRealTrainerGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64")
	}
	eachGEMMKernelSet(t, checkRealGoldenBits)
}

// eachGEMMKernelSet runs body once per set of GEMM kernels the host runs
// (tensor.UseGEMMKernels refuses the others), as a subtest named for the
// set, so that a host with AVX-512 still pins the AVX2 and portable bits.
func eachGEMMKernelSet(t *testing.T, body func(t *testing.T)) {
	for _, set := range []string{"avx512", "avx2", "go"} {
		t.Run(set, func(t *testing.T) {
			was, err := tensor.UseGEMMKernels(set)
			if err != nil {
				t.Skip(err)
			}
			defer tensor.UseGEMMKernels(was)
			body(t)
		})
	}
}

// goldenTrainer returns the trainer and genome of TestRealTrainerGoldenBits.
func goldenTrainer(t *testing.T) (*RealTrainer, *genome.Genome) {
	t.Helper()
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
	return trainer, g
}

// checkRealGoldenBits trains the golden macro model two epochs and
// requires its recorded loss, accuracy and state bits.
func checkRealGoldenBits(t *testing.T) {
	t.Helper()
	trainer, g := goldenTrainer(t)
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
// re-recorded with TestRealTrainerGoldenBits', its search fingerprint
// when the paper family's fit took the closed-form Jacobian.
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
	if got, want := h.Sum64(), uint64(0xc1736e3c51362245); got != want {
		t.Errorf("micro search fingerprint %#x over %d models, want %#x", got, len(res.Models), want)
	}

	if runtime.GOARCH != "amd64" {
		t.Skip("training bits recorded on amd64")
	}
	eachGEMMKernelSet(t, checkMicroEpochBits)
}

// goldenMicroModel builds the micro model of TestMicroGoldenBits.
func goldenMicroModel(t *testing.T) Trainable {
	t.Helper()
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
	return model
}

// checkMicroEpochBits trains the golden micro model one epoch and
// requires its recorded loss and accuracy bits.
func checkMicroEpochBits(t *testing.T) {
	t.Helper()
	m, err := goldenMicroModel(t).TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	got := [3]uint64{math.Float64bits(m.TrainLoss), math.Float64bits(m.TrainAccuracy), math.Float64bits(m.ValAccuracy)}
	if want := [3]uint64{0x3fe63651ebe35198, 0x404a900000000000, 0x4046eaaaaaaaaaab}; got != want {
		t.Errorf("loss/trainAcc/valAcc bits %#x (%v %v %v), want %#x", got, m.TrainLoss, m.TrainAccuracy, m.ValAccuracy, want)
	}
}

// TestRealModelResumesBitForBit: a real model restored from its resume
// state after epoch 2 trains epochs 3 and 4 to the bits of the model
// that never stopped — weights, batch-norm warm-up, momentum, the data
// order and the epoch count all continue — in both search spaces. A
// state holding the weights alone, as an earlier build wrote it, still
// restores.
func TestRealModelResumesBitForBit(t *testing.T) {
	train, val := highBeamSplit16(t, 60)
	config := func(widths ...int) RealTrainerConfig {
		return RealTrainerConfig{
			Decode:    genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: widths, NumClasses: 2},
			BatchSize: 16,
		}
	}
	macro, err := NewRealTrainer(train, val, config(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	micro, err := NewRealMicroTrainer(train, val, config(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.Parse("1011011|0110101|1110110", 4)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := genome.ParseMicro("0.conv3+0.max3;1.conv5+0.id;1.avg3+2.conv3")
	if err != nil {
		t.Fatal(err)
	}
	for name, newModel := range map[string]func() (Trainable, error){
		"macro": func() (Trainable, error) { return macro.NewModel(g, 17) },
		"micro": func() (Trainable, error) { return micro.NewModel(mg, 17) },
	} {
		t.Run(name, func(t *testing.T) {
			build := func() Trainable {
				m, err := newModel()
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			epochs := func(m Trainable, n int) []EpochMetrics {
				var out []EpochMetrics
				for i := 0; i < n; i++ {
					em, err := m.TrainEpoch()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, em)
				}
				return out
			}
			whole := build()
			want := epochs(whole, 4)[2:]

			stopped := build()
			epochs(stopped, 2)
			state, err := stopped.(Resumable).ResumeState()
			if err != nil {
				t.Fatal(err)
			}
			resumed := build()
			if err := resumed.(Resumable).RestoreState(state, 2); err != nil {
				t.Fatal(err)
			}
			if got := epochs(resumed, 2); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed epochs 3-4 %+v, uninterrupted %+v", got, want)
			}
			// The metrics are coarse (a dozen validation samples); the
			// states after epoch 4 must match to the bit.
			wholeState, err := whole.(Resumable).ResumeState()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := resumed.(Resumable).ResumeState(); err != nil || !bytes.Equal(got, wholeState) {
				t.Fatalf("state after epoch 4 differs from the uninterrupted model's (%v)", err)
			}

			weights, err := stopped.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if err := build().(Resumable).RestoreState(weights, 2); err != nil {
				t.Fatalf("a weights-only state does not restore: %v", err)
			}
		})
	}
}
