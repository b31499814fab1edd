package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/obs"
	"a4nn/internal/tensor"
	"a4nn/internal/xfel"
)

// setupRepeats is how many times a workload sets itself up; setup_s is
// the median, so one slow repeat does not decide it.
const setupRepeats = 7

// bench is one run of one workload.
type bench struct {
	name    string
	seed    int64
	seconds float64 // budget of the timed region
	tr      *tracer // nil: tracing off
	dir     string  // this run's scratch directory
	out     *outcome
}

// outcome is everything a workload run measured. The end-to-end metrics
// derive from the plain fields; layer holds the traced run's per-layer
// metrics.
type outcome struct {
	setups       []float64 // seconds per set-up repeat
	units        []float64 // seconds per search, or per job turnaround
	wall         float64   // timed region, seconds: the sum of units, or the span of overlapping jobs
	models       int
	epochs       int
	epochBudget  int
	bestSum      float64 // sum over searches of the best accuracy found
	searches     int
	allocBytes   uint64
	attempted    int
	failed       int
	fingerprints []uint64
	problems     []string
	layer        map[string]float64
	spans        []span
}

func (o *outcome) problem(lines ...string) { o.problems = append(o.problems, lines...) }

// addSearch folds one finished, checked search into the totals.
func (o *outcome) addSearch(label string, run *searchRun) {
	o.problem(checkSearch(label, run.res, run.cfg)...)
	o.units = append(o.units, run.wall)
	o.wall += run.wall
	o.allocBytes += run.allocBytes
	o.models += len(run.res.Models)
	o.epochs += run.res.TotalEpochs
	o.epochBudget += len(run.res.Models) * run.cfg.MaxEpochs
	best := 0.0
	for _, m := range run.res.Models {
		best = max(best, m.Fitness)
	}
	o.bestSum += best
	o.searches++
	o.attempted += len(run.res.Models)
	o.failed += run.res.Totals.Retries + run.res.Totals.Faults
	o.fingerprints = append(o.fingerprints, fingerprint(records(run.res)))
}

// endToEndValues derives the end-to-end metrics.
func (o *outcome) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":            median(o.setups),
		"models_per_s":       float64(o.models) / o.wall,
		"search_p50_s":       median(o.units),
		"alloc_mb_per_model": float64(o.allocBytes) / 1e6 / float64(o.models),
	}
}

// another reports whether one more unit of work is expected to end
// inside the budget, going by the mean of the units so far. The first
// unit always runs, so a workload whose single unit outlasts the budget
// still measures one.
func (b *bench) another(start time.Time, unitSeconds []float64) bool {
	if len(unitSeconds) == 0 {
		return true
	}
	return time.Since(start).Seconds()+sum(unitSeconds)/float64(len(unitSeconds)) <= b.seconds
}

// setLayer records one per-layer metric. A name spec.go does not declare
// would be dropped from the output silently, so it fails the run instead.
func (b *bench) setLayer(name string, v float64) {
	if b.out.layer == nil {
		b.out.layer = make(map[string]float64)
	}
	if !slices.ContainsFunc(perLayer, func(s metricSpec) bool { return s.Name == name }) {
		b.out.problem("undeclared per-layer metric " + name)
	}
	b.out.layer[name] = v
}

// ---- real-training searches ----

// trainSpec sizes a real-training search. The two specs hold the work
// constant across benchmark seeds, because a six-model search is too small
// to average its own luck out: with the NAS seeded from -seed and the
// prediction engine on, the wall time of train_real ranged from 15 s to
// 24 s over ten seeds (which architectures were drawn, and how many of
// their epochs the engine cut), more than any change to the tensor code
// would move it. So the NAS seed is fixed (every run starts from the same
// population), training is fixed-budget (Engine nil, the standalone-NAS
// baseline the example also runs), and -seed picks the dataset. The
// engine's savings are measured where 2000 models average them out, on
// the surrogate workloads.
type trainSpec struct {
	sim       xfel.SimulatorParams
	patterns  int
	decode    genome.DecodeConfig
	nas       nsga.Config // Seed is the first search's; search u uses Seed+u
	maxEpochs int
	// gemm is the (m,k,n) of the micro-phase product: the 3×3 convolution
	// of the first phase over one 32-sample batch, which is the most
	// frequent GEMM of the search.
	gemm [3]int
	// gemmMetric names the family that shape falls in.
	gemmMetric string
}

// trainReal is examples/protein_classification: 16×16 detectors, 240
// high-beam patterns at spread 0.3, widths 4/8/8, NAS seed 5, 3+3 models
// over two generations, 6 epochs each (the example's 12 cut so that one
// search fits the timed region). Its GEMMs are skinny and never packed.
func trainReal() trainSpec {
	sim := xfel.DefaultSimulatorParams()
	sim.Size = 16
	sim.OrientationSpread = 0.3
	return trainSpec{
		sim: sim, patterns: 240,
		decode:    genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
		nas:       nsga.Config{PopulationSize: 3, Offspring: 3, Generations: 2, Seed: 5},
		maxEpochs: 6,
		gemm:      [3]int{4, 36, 32 * 16 * 16}, gemmMetric: "tensor.matmul_skinny_gflops",
	}
}

// trainWide is `a4nn -data` at its default shapes and seed: 32×32
// detectors, 64 patterns, widths 8/16/32, NAS seed 1; 2+2 models and 3
// epochs each so that one search fits the timed region. Most of its GEMMs
// cross the packed threshold.
func trainWide() trainSpec {
	return trainSpec{
		sim: xfel.DefaultSimulatorParams(), patterns: 64,
		decode:    genome.DefaultDecodeConfig(),
		nas:       nsga.Config{PopulationSize: 2, Offspring: 2, Generations: 2, Seed: 1},
		maxEpochs: 3,
		gemm:      [3]int{8, 72, 32 * 32 * 32}, gemmMetric: "tensor.matmul_packed_gflops",
	}
}

// build synthesises the dataset from the seed, splits it 80/20 and makes
// the trainer: everything a real-training search needs before it starts.
func (sp trainSpec) build(seed int64, tr *tracer) (core.Trainer, *dataset.Dataset, error) {
	id := tr.start("xfel.generate", 0)
	sim, err := xfel.NewSimulator(seed, sp.sim)
	if err != nil {
		return nil, nil, err
	}
	pats, err := sim.GenerateBatch(seed+1, sp.patterns, xfel.HighBeam)
	if err != nil {
		return nil, nil, err
	}
	tr.end(id)
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("dataset.split", 0)
	train, val, err := ds.Split(0.8, rand.New(rand.NewSource(seed)))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	trainer, err := core.NewRealTrainer(train, val, core.RealTrainerConfig{Decode: sp.decode})
	return trainer, train, err
}

func (sp trainSpec) config(trainer core.Trainer, search int) core.Config {
	cfg := core.DefaultConfig(trainer)
	cfg.NAS = sp.nas
	cfg.NAS.Seed += int64(search)
	cfg.MaxEpochs = sp.maxEpochs
	cfg.Engine = nil
	cfg.Beam = xfel.HighBeam.String()
	return cfg
}

// runTrain measures whole real-training searches on the dataset
// synthesised from the seed. No store, no observer and no engine, so only
// tensor, nn, genome, nsga and sched do any work.
func (b *bench) runTrain(sp trainSpec) error {
	var trainer core.Trainer
	var train *dataset.Dataset
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if trainer, train, err = sp.build(b.seed, b.tr); err != nil {
			return err
		}
		b.out.setups = append(b.out.setups, time.Since(t0).Seconds())
	}

	var profiled *obs.Observer
	if b.tr != nil {
		// The layer profiler is a public, process-wide hook; its registry
		// is read back below. It also switches the GEMM counters on.
		profiled = obs.NewObserver()
		nn.SetProfiler(nn.NewProfiler(profiled.Registry()))
		defer nn.SetProfiler(nil)
		tensor.ResetKernelCounters()
	}

	var runs []*searchRun
	start := time.Now()
	for u := 0; b.another(start, b.out.units); u++ {
		run, err := runSearch(sp.config(trainer, u), "", b.tr)
		if err != nil {
			return fmt.Errorf("search %d: %w", u, err)
		}
		b.out.addSearch(fmt.Sprintf("%s[%d]", b.name, u), run)
		runs = append(runs, run)
	}
	if b.tr == nil {
		return nil
	}
	spans := b.tr.snapshot()
	b.searchLayers(runs, spans)
	epochs := spanSeconds(spans, "train_epoch")
	busy := sum(epochs)
	b.setLayer("nn.train_epoch_busy_s", busy)
	b.setLayer("nn.train_epoch_p50_ms", 1e3*median(epochs))
	b.setLayer("nn.train_epoch_count", float64(len(epochs)))
	b.setLayer("xfel.generate_ms_per_pattern", 1e3*median(spanSeconds(spans, "xfel.generate"))/float64(sp.patterns))
	b.setLayer("dataset.split_ms", 1e3*median(spanSeconds(spans, "dataset.split")))

	calls, flops := tensor.KernelCounters()
	b.setLayer("tensor.gemm_calls", float64(calls))
	b.setLayer("tensor.gemm_gflop", float64(flops)/1e9)
	if calls > 0 {
		b.setLayer("tensor.gemm_packed_share", float64(tensor.PackedKernelCalls())/float64(calls))
	}
	if busy > 0 {
		b.setLayer("tensor.gemm_gflops_per_s", float64(flops)/1e9/busy)
	}
	b.profilerLayers(profiled.Registry())
	return b.tensorPhases(sp, train)
}

// profilerLayers reads the per-kind forward and backward times the layer
// profiler accumulated. A decoded network has four layer kinds: the
// phase block (its convolutions, batch norms and ReLUs are inside it and
// not separable from out here), max pooling, global average pooling and
// the dense head.
func (b *bench) profilerLayers(reg *obs.Registry) {
	series := make(map[string]float64)
	reg.VisitSeries(func(name string, v float64) { series[name] = v })
	fwd := func(kind string) float64 { return series[`a4nn_nn_layer_forward_seconds_sum{layer="`+kind+`"}`] }
	bwd := func(kind string) float64 { return series[`a4nn_nn_layer_backward_seconds_sum{layer="`+kind+`"}`] }
	b.setLayer("nn.phase_fwd_s", fwd("phase"))
	b.setLayer("nn.phase_bwd_s", bwd("phase"))
	b.setLayer("nn.pool_s", fwd("maxpool2x2")+bwd("maxpool2x2")+fwd("gap")+bwd("gap"))
	b.setLayer("nn.dense_s", fwd("dense")+bwd("dense"))
	// Evaluation passes are the forward calls with no backward call to
	// match; their share of layer time is that share of forward time.
	fwdCalls := series[`a4nn_nn_layer_forward_seconds_count{layer="phase"}`]
	bwdCalls := series[`a4nn_nn_layer_backward_seconds_count{layer="phase"}`]
	if total := fwd("phase") + bwd("phase"); fwdCalls > 0 && total > 0 {
		b.setLayer("nn.eval_share", fwd("phase")*(fwdCalls-bwdCalls)/fwdCalls/total)
	}
}

// ---- surrogate searches ----

// runSearches measures paper-scale surrogate searches back to back:
// search i is planFor(seed, i). With insitu every search gets the full
// in-situ stack in a fresh directory; without, no store and no observer,
// which makes search_bare the zero line for search_insitu.
func (b *bench) runSearches(insitu bool) error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.warmSearch(insitu, i); err != nil {
			return err
		}
		b.out.setups = append(b.out.setups, time.Since(t0).Seconds())
	}

	var runs []*searchRun
	start := time.Now()
	for i := 0; b.another(start, b.out.units); i++ {
		cfg, err := paperConfig(b.seed, i)
		if err != nil {
			return err
		}
		dir, label := "", fmt.Sprintf("%s[%d]", b.name, i)
		if insitu {
			dir = filepath.Join(b.dir, fmt.Sprintf("search-%03d", i))
		}
		run, err := runSearch(cfg, dir, b.tr)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		b.out.addSearch(label, run)
		if insitu {
			b.out.problem(checkJournal(label, filepath.Join(dir, obs.EventsFile), run.stack.observer.Registry())...)
			if i > 0 {
				os.RemoveAll(dir) // search 0 stays for the micro-phases
			}
		}
		runs = append(runs, run)
	}
	if insitu {
		// The stack must not change what a search finds.
		if err := b.expectBare(0, b.out.fingerprints[0]); err != nil {
			return err
		}
	}
	if b.tr == nil {
		return nil
	}
	spans := b.tr.snapshot()
	b.searchLayers(runs, spans)
	b.setLayer("simtrain.train_epoch_p50_us", 1e6*median(spanSeconds(spans, "train_epoch")))
	if insitu {
		return b.insituLayers(runs)
	}
	return b.poolSpeedup()
}

// warmSearch is one set-up repeat of the surrogate workloads: build the
// first search's configuration and run a small search through the same
// code (and, in situ, the same stack), so lazy initialisation is paid
// before the timed region and set-up is long enough to time.
func (b *bench) warmSearch(insitu bool, repeat int) error {
	cfg, err := paperConfig(b.seed, 0)
	if err != nil {
		return err
	}
	cfg.NAS.PopulationSize, cfg.NAS.Offspring, cfg.NAS.Generations = 4, 4, 3
	dir := ""
	if insitu {
		dir = filepath.Join(b.dir, fmt.Sprintf("warm-%d", repeat))
		defer os.RemoveAll(dir)
	}
	_, err = runSearch(cfg, dir, nil)
	return err
}

// expectBare reruns search i with nothing around it and requires the
// fingerprint to equal want.
func (b *bench) expectBare(i int, want uint64) error {
	cfg, err := paperConfig(b.seed, i)
	if err != nil {
		return err
	}
	run, err := runSearch(cfg, "", nil)
	if err != nil {
		return err
	}
	if got := fingerprint(records(run.res)); got != want {
		b.out.problem(fmt.Sprintf("%s[%d]: fingerprint %016x differs from the bare search's %016x", b.name, i, want, got))
	}
	return nil
}

// searchLayers fills the per-layer metrics every search-shaped workload
// has: model construction, the prediction engine, the NSGA serial
// section, the runner's own time and the scheduler's accounting.
func (b *bench) searchLayers(runs []*searchRun, spans []span) {
	newModel := spanSeconds(spans, "new_model")
	b.setLayer("genome.new_model_busy_s", sum(newModel))
	b.setLayer("genome.new_model_p50_us", 1e6*median(newModel))

	var gaps []float64
	var busy, simWall, idle float64
	interactions, terminated, retries, generations := 0, 0, 0, 0
	for _, r := range runs {
		busy += r.res.Overhead.TotalSeconds
		interactions += r.res.Overhead.Interactions
		terminated += r.res.TerminatedEarly
		retries += r.res.Totals.Retries
		simWall += r.res.Totals.WallSeconds
		idle += r.res.Totals.IdleSeconds
		gaps = append(gaps, r.trace.gaps...)
		generations += r.trace.generations
	}
	b.setLayer("predict.busy_s", busy)
	b.setLayer("predict.interactions", float64(interactions))
	if interactions > 0 {
		b.setLayer("predict.mean_us", 1e6*busy/float64(interactions))
	}
	b.setLayer("predict.terminated_frac", float64(terminated)/float64(b.out.models))
	b.setLayer("nsga.gen_gap_p50_ms", 1e3*median(gaps))
	b.setLayer("core.generations", float64(generations))
	b.setLayer("sched.sim_wall_h", simWall/3600)
	if simWall > 0 {
		b.setLayer("sched.idle_frac", idle/simWall)
	}
	b.setLayer("sched.retries", float64(retries))

	// core.self_s: what the search and generation spans do not spend in
	// the trainer calls under them, less the engine time the runner
	// itself accounts.
	self := selfTimes(spans)
	own := -busy
	for _, s := range spans {
		if s.Name == "search" || s.Name == "generation" {
			own += float64(self[s.ID]) / 1e9
		}
	}
	b.setLayer("core.self_s", own)

	b.predictPhases(runs)
}

// insituLayers measures the in-situ stack on search 0's own files: the
// counts a search leaves behind, then micro-phases that feed the same
// records, checkpoints and events back through each layer, then a
// ReplayFrom rerun that is a correctness check as much as a timing.
func (b *bench) insituLayers(runs []*searchRun) error {
	first := runs[0]
	dir := first.stack.dir
	// Counts are over every search of the timed region; sizes are search 0's.
	var puts, checkpoints, emitted, dropped, alerts, spansFlushed float64
	var flush, healthClose []float64
	for _, r := range runs {
		reg := r.stack.observer.Registry()
		puts += float64(len(r.res.Models))
		checkpoints += float64(r.res.TotalEpochs) // one per trained epoch
		emitted += float64(reg.Counter("a4nn_events_emitted_total").Value())
		dropped += float64(reg.Counter("a4nn_events_dropped_total").Value())
		alerts += float64(len(r.stack.health.ActiveAlerts()) + len(r.stack.health.ResolvedAlerts()))
		recorded, _ := r.stack.observer.Tracer().Snapshot()
		spansFlushed += float64(len(recorded))
		flush = append(flush, r.stack.flushSeconds)
		healthClose = append(healthClose, r.stack.healthCloseSeconds)
	}
	storeBytes, _ := dirSize(dir)
	b.setLayer("commons.record_puts", puts)
	b.setLayer("commons.checkpoint_puts", checkpoints)
	b.setLayer("commons.store_mb", float64(storeBytes)/1e6)
	b.setLayer("obs.events_emitted", emitted)
	b.setLayer("obs.events_dropped", dropped)
	b.setLayer("obs.journal_mb", float64(fileSize(filepath.Join(dir, obs.EventsFile)))/1e6)
	b.setLayer("obs.registry_series", float64(first.stack.observer.Registry().NumSeries()))
	b.setLayer("obs.flush_ms", 1e3*median(flush))
	b.setLayer("obs.spans", spansFlushed)
	b.setLayer("health.alerts_fired", alerts)
	b.setLayer("health.close_ms", 1e3*median(healthClose))
	b.setLayer("bench.fsync_calls", float64(syncCallsPerStack*len(runs)))

	if err := b.historyPhases(dir); err != nil {
		return err
	}
	if err := b.commonsPhases(first); err != nil {
		return err
	}
	if err := b.eventPhases(dir); err != nil {
		return err
	}

	// Replay: the same search again, every model read back from search
	// 0's store instead of trained.
	cfg, err := paperConfig(b.seed, 0)
	if err != nil {
		return err
	}
	store, err := commons.Open(dir)
	if err != nil {
		return err
	}
	cfg.ReplayFrom = store
	replay, err := runSearch(cfg, "", nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	b.setLayer("commons.replay_s", replay.wall)
	if replay.res.Replayed != len(replay.res.Models) {
		b.out.problem(fmt.Sprintf("%s: replay retrained %d of %d models", b.name, len(replay.res.Models)-replay.res.Replayed, len(replay.res.Models)))
	}
	if got := fingerprint(records(replay.res)); got != b.out.fingerprints[0] {
		b.out.problem(fmt.Sprintf("%s: replay fingerprint %016x differs from the original %016x", b.name, got, b.out.fingerprints[0]))
	}
	return nil
}

// poolSpeedup is the benchmark's only multi-device number: the simulated
// wall time of the first few searches on one device over that on two.
// Two-device searches are not reproducible (the device a model lands on
// is part of its seed), so this is a baseline for distributed work, not
// a checked result.
func (b *bench) poolSpeedup() error {
	const searches = 3
	var one, two float64
	for i := 0; i < searches; i++ {
		for _, devices := range []int{1, 2} {
			cfg, err := paperConfig(b.seed, i)
			if err != nil {
				return err
			}
			cfg.Devices = devices
			res, err := core.Run(cfg)
			if err != nil {
				return err
			}
			if devices == 1 {
				one += res.Totals.WallSeconds
			} else {
				two += res.Totals.WallSeconds
			}
		}
	}
	if two > 0 {
		b.setLayer("sched.pool_speedup_2dev", one/two)
	}
	return nil
}
