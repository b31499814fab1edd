package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/dataset"
	"a4nn/internal/fit"
	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/tensor"
	"a4nn/internal/tsdb"
)

// Micro-phases run after a traced workload's timed region. Each feeds
// one layer's public functions the data the workload itself produced and
// times single calls, which a span around a whole search cannot resolve.

// phaseBudget bounds one micro-phase, so the traced run stays about as
// long as the untraced one.
const phaseBudget = 250 * time.Millisecond

// timeCalls calls fn until the phase budget is spent (at least minCalls
// times) and returns the seconds each call took. fn receives the call
// index.
func timeCalls(minCalls int, fn func(i int) error) ([]float64, error) {
	var took []float64
	deadline := time.Now().Add(phaseBudget)
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// predictPhases replays the fitness histories the searches recorded
// through a fresh prediction engine: every Tracker.Observe is one engine
// interaction, and one fit.CurveFit per full history isolates the
// Levenberg–Marquardt solver underneath it.
func (b *bench) predictPhases(runs []*searchRun) {
	engineCfg := runs[0].cfg.Engine
	if engineCfg == nil {
		return
	}
	engine, err := predict.NewEngine(*engineCfg)
	if err != nil {
		return
	}
	family := engineCfg.Family
	lower, upper := family.Bounds()
	var observe, fits []float64
	deadline := time.Now().Add(phaseBudget)
replay:
	for _, r := range runs {
		for _, m := range r.res.Models {
			if time.Now().After(deadline) {
				break replay
			}
			history := m.Record.FitnessHistory()
			tracker := predict.NewTracker(engine)
			for _, fitness := range history {
				t0 := time.Now()
				tracker.Observe(fitness)
				observe = append(observe, time.Since(t0).Seconds())
			}
			if len(history) < family.NumParams() {
				continue
			}
			xs := make([]float64, len(history))
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			opts := &fit.LMOptions{MaxIterations: 100, Lower: lower, Upper: upper}
			t0 := time.Now()
			// A fit that fails to converge still cost its time.
			_, _ = fit.CurveFit(family.Eval, xs, history, family.InitialGuess(xs, history), opts)
			fits = append(fits, time.Since(t0).Seconds())
		}
	}
	b.setLayer("predict.observe_p50_us", 1e6*median(observe))
	b.setLayer("fit.curvefit_p50_us", 1e6*median(fits))
}

// tensorPhases times the two kernels a profile of real training is made
// of, at the shape of the search's most frequent convolution (3×3, first
// phase width in and out, one 32-sample batch of the run's own training
// images): the batched im2col, then the GEMM that consumes its output.
func (b *bench) tensorPhases(sp trainSpec, train *dataset.Dataset) error {
	const batch = 32
	m, k, n := sp.gemm[0], sp.gemm[1], sp.gemm[2]
	channels, hw := k/9, sp.decode.InShape[1]
	if train.Len() < batch || batch*hw*hw != n {
		return fmt.Errorf("%s: micro-phase shape %v does not fit the dataset", b.name, sp.gemm)
	}
	// The images have one channel; repeat it to the phase width.
	x := tensor.New(batch, channels, hw, hw)
	img := hw * hw
	for i := 0; i < batch; i++ {
		for c := 0; c < channels; c++ {
			copy(x.Data()[(i*channels+c)*img:], train.X.Data()[i*img:(i+1)*img])
		}
	}
	cols := tensor.New(k, n)
	took, err := timeCalls(3, func(int) error { return tensor.Im2ColBatchInto(x, cols, 3, 3, 1, 1) })
	if err != nil {
		return err
	}
	// Bytes computed, not measured: every input element read once per
	// call, every cols element written once.
	b.setLayer("tensor.im2col_gb_per_s", float64(8*(x.Len()+cols.Len()))/1e9/median(took))

	w := tensor.Full(0.01, m, k)
	prod := tensor.New(m, n)
	took, err = timeCalls(3, func(int) error { return tensor.MatMulInto(w, cols, prod) })
	if err != nil {
		return err
	}
	b.setLayer(sp.gemmMetric, 2*float64(m)*float64(k)*float64(n)/1e9/median(took))
	return nil
}

// commonsPhases re-puts search 0's own records and checkpoints into a
// scratch store and reads the records back.
func (b *bench) commonsPhases(first *searchRun) error {
	store, err := commons.Open(filepath.Join(b.dir, "phase-commons"))
	if err != nil {
		return err
	}
	recs := records(first.res)
	put, err := timeCalls(len(recs), func(i int) error { return store.PutRecord(recs[i%len(recs)]) })
	if err != nil {
		return err
	}
	get, err := timeCalls(len(recs), func(i int) error {
		_, err := store.GetRecord(recs[i%len(recs)].ID)
		return err
	})
	if err != nil {
		return err
	}
	// A checkpoint as the runner writes it after a model's last epoch:
	// the whole record trail so far plus the model state (a surrogate's
	// is a few dozen bytes).
	checkpoints := make([]*commons.Checkpoint, len(recs))
	for i, r := range recs {
		checkpoints[i] = &commons.Checkpoint{
			ID: r.ID, Genome: r.Genome, Generation: r.Generation, Seed: first.cfg.NAS.Seed,
			Epoch: r.EpochsTrained(), Epochs: r.Epochs, SavedAt: time.Now(),
		}
	}
	putCp, err := timeCalls(len(recs), func(i int) error { return store.PutCheckpoint(checkpoints[i%len(recs)]) })
	if err != nil {
		return err
	}
	b.setLayer("commons.put_record_p50_us", 1e6*median(put))
	b.setLayer("commons.get_record_p50_us", 1e6*median(get))
	b.setLayer("commons.put_checkpoint_p50_us", 1e6*median(putCp))
	return nil
}

// eventPhases re-emits search 0's journal through a journal with a file
// and a flight recorder attached, and feeds the same events to a health
// engine's synchronous entry point.
func (b *bench) eventPhases(dir string) error {
	events, err := obs.ReadEvents(filepath.Join(dir, obs.EventsFile))
	if err != nil || len(events) == 0 {
		return fmt.Errorf("%s: reread journal: %d events, %v", b.name, len(events), err)
	}
	phaseDir := filepath.Join(b.dir, "phase-events")
	if err := os.MkdirAll(phaseDir, 0o755); err != nil {
		return err
	}
	observer := obs.NewObserver()
	if err := observer.Journal().OpenFile(filepath.Join(phaseDir, obs.EventsFile)); err != nil {
		return err
	}
	recorder := obs.NewRecorder(obs.RecorderConfig{Dir: phaseDir, Registry: observer.Registry(), Tracer: observer.Tracer()})
	observer.AttachRecorder(recorder)
	emit, err := timeCalls(len(events), func(i int) error {
		observer.Journal().Emit(events[i%len(events)])
		return nil
	})
	recorder.Close()
	if cerr := observer.Journal().Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.setLayer("obs.emit_p50_us", 1e6*median(emit))

	engine, err := health.New(pinnedHealth(phaseDir), obs.NewObserver())
	if err != nil {
		return err
	}
	observe, err := timeCalls(len(events), func(i int) error {
		engine.Observe(events[i%len(events)])
		return nil
	})
	if cerr := engine.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.setLayer("health.observe_p50_us", 1e6*median(observe))
	return nil
}

// historyPhases reads what search 0's sampler stored, then times a sample
// pass and a range query on a live store and an OpenRead plus query on
// the finished file — the path a terminal job's /query takes per call.
func (b *bench) historyPhases(dir string) error {
	const series = "a4nn_train_epochs_total"
	done, err := tsdb.OpenRead(dir)
	if err != nil {
		return err
	}
	samples := 0
	for _, s := range done.Series() {
		samples += s.Samples
	}
	b.setLayer("tsdb.samples", float64(samples))
	b.setLayer("tsdb.file_kb", float64(fileSize(filepath.Join(dir, tsdb.SeriesFile)))/1e3)

	openRead, err := timeCalls(3, func(int) error {
		db, err := tsdb.OpenRead(dir)
		if err != nil {
			return err
		}
		_, err = db.Query(series, 0, 0, 100)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("tsdb.openread_p50_us", 1e6*median(openRead))

	// A live store sampling a registry with search 0's series in it.
	reg := obs.NewRegistry()
	for _, s := range done.Series() {
		reg.Gauge(s.Name).Set(float64(s.Samples))
	}
	liveDir := filepath.Join(b.dir, "phase-history")
	if err := os.MkdirAll(liveDir, 0o755); err != nil {
		return err
	}
	live, err := tsdb.Open(liveDir)
	if err != nil {
		return err
	}
	sampler := tsdb.NewSampler(live, reg, time.Hour)
	var tick []float64
	for deadline := time.Now().Add(phaseBudget); time.Now().Before(deadline); {
		// A sample within a millisecond of the last is dropped on append,
		// which is cheaper than storing it; space the passes out.
		time.Sleep(time.Millisecond)
		t0 := time.Now()
		sampler.SampleNow()
		tick = append(tick, time.Since(t0).Seconds())
	}
	query, err := timeCalls(3, func(int) error {
		_, err := live.Query(series, 0, 0, 100)
		return err
	})
	if cerr := live.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.setLayer("tsdb.sample_tick_p50_us", 1e6*median(tick))
	b.setLayer("tsdb.query_live_p50_us", 1e6*median(query))
	return nil
}
