// Micro search space (advanced): this example composes the workflow's
// pieces by hand — NSGA-II, the prediction engine's Algorithm-1
// orchestrator, the device pool, and the real trainer — over NSGA-Net's
// *micro* (cell-based) search space, which the paper's evaluation does
// not use but its NAS supports. It shows that every component is
// independently reusable. For the one-call version of the same search,
// hand the same trainer to a4nn.RunMicro.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"

	"a4nn"
	"a4nn/internal/genome"
	"a4nn/internal/nsga"
	"a4nn/internal/sched"
)

func main() {
	const maxEpochs = 10

	// Data: a small high-beam diffraction set.
	params := a4nn.DefaultSimulatorParams()
	params.Size = 16
	ds, err := a4nn.GenerateXFEL(7, 200, a4nn.HighBeam, params)
	if err != nil {
		log.Fatal(err)
	}
	train, val, err := ds.Split(0.8, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	// The prediction engine, retargeted to this budget.
	engineCfg := a4nn.DefaultEngineConfig()
	engineCfg.EPred = maxEpochs
	engine, err := a4nn.NewEngine(engineCfg)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sched.NewPool(2, 0) // two simulated devices
	if err != nil {
		log.Fatal(err)
	}
	// The real trainer decodes each cell and trains it with SGD.
	trainer, err := a4nn.NewRealMicroTrainer(train, val, a4nn.RealTrainerConfig{
		Decode: a4nn.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{6, 12}, NumClasses: 2},
		LR:     0.08,
	})
	if err != nil {
		log.Fatal(err)
	}

	var totalEpochs, terminated, built atomic.Int64 // tasks run on two devices concurrently
	evaluator := nsga.EvaluatorFunc[*genome.MicroGenome](func(gen int, cands []*genome.MicroGenome) ([][]float64, error) {
		objs := make([][]float64, len(cands))
		tasks := make([]sched.Task, len(cands))
		for i, g := range cands {
			tasks[i] = func(tc sched.TaskCtx) (float64, error) {
				dev := tc.Dev
				model, err := trainer.NewModel(g, int64(gen*100+i))
				if err != nil {
					return 0, err
				}
				orch := &a4nn.Orchestrator{Engine: engine, MaxEpochs: maxEpochs}
				out, err := orch.TrainModel(tc.Ctx, model, dev, train.Len(), nil)
				if err != nil {
					return 0, err
				}
				totalEpochs.Add(int64(out.EpochsTrained))
				built.Add(1)
				if out.Terminated {
					terminated.Add(1)
				}
				mflops := float64(model.FLOPs()) / 1e6
				objs[i] = []float64{100 - out.FinalFitness, mflops}
				fmt.Printf("gen %d cell %-40s fitness %5.1f%%  %.2f MFLOPs  epochs %d\n",
					gen, g, out.FinalFitness, mflops, out.EpochsTrained)
				return out.SimSeconds, nil
			}
		}
		if _, err := pool.RunGeneration(context.Background(), tasks); err != nil {
			return nil, err
		}
		return objs, nil
	})

	res, err := nsga.Run[*genome.MicroGenome](
		nsga.Config{PopulationSize: 4, Offspring: 4, Generations: 2, Seed: 11},
		genome.MicroSpace{CellNodes: 3}, evaluator)
	if err != nil {
		log.Fatal(err)
	}

	n, e := built.Load(), totalEpochs.Load()
	fmt.Printf("\nmicro search: %d cells trained, %d/%d epochs (%.0f%% saved), %d terminated early\n",
		n, e, n*maxEpochs, 100*(1-float64(e)/float64(n*maxEpochs)), terminated.Load())
	fmt.Println("final population (fitness% / MFLOPs):")
	for _, ind := range res.Population {
		fmt.Printf("  %-40s %5.1f%%  %.2f\n", ind.Payload, 100-ind.Objectives[0], ind.Objectives[1])
	}
}
