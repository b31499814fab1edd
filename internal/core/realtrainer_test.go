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
// kernels were fused, bit for bit. The values hold on amd64 only: other
// ports fuse multiply-adds, which rounds differently.
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
		{0x3fe76fd9f413126f, 0x404b9aaaaaaaaaab, 0x4049000000000000},
		{0x3fe24851debc124e, 0x4051300000000000, 0x4050aaaaaaaaaaab},
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
}

// TestMicroGoldenBits is TestRealTrainerGoldenBits for the micro space,
// recorded before the two search drivers were merged: a surrogate
// micro search's record IDs, fitness bits and termination epochs (the
// operators' rng draw order), and one real-training epoch of a fixed
// cell (DecodeMicro's weight draw order).
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
	if want := [3]uint64{0x3fe63651ebe35198, 0x404ca55555555555, 0x4046eaaaaaaaaaab}; got != want {
		t.Errorf("loss/trainAcc/valAcc bits %#x (%v %v %v), want %#x", got, m.TrainLoss, m.TrainAccuracy, m.ValAccuracy, want)
	}
}
