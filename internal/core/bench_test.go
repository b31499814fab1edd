package core

import (
	"math/rand"
	"testing"

	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/xfel"
)

// BenchmarkRealTrainEpoch is the epoch rung of the layer ladder: one
// TrainEpoch of a decoded genome at the benchmark's train_real shapes
// (240 high-beam 16×16 patterns at orientation spread 0.3, split 80/20,
// widths 4/8/8, batch 32): six training batches with their optimizer
// steps, then the validation sweep. Run with -benchmem.
func BenchmarkRealTrainEpoch(b *testing.B) {
	params := xfel.DefaultSimulatorParams()
	params.Size = 16
	params.OrientationSpread = 0.3
	sim, err := xfel.NewSimulator(1, params)
	if err != nil {
		b.Fatal(err)
	}
	pats, err := sim.GenerateBatch(2, 240, xfel.HighBeam)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		b.Fatal(err)
	}
	train, val, err := ds.Split(0.8, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode: genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := genome.Parse("1011011|0110101|1110110", 4)
	if err != nil {
		b.Fatal(err)
	}
	model, err := trainer.NewModel(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.TrainEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}
