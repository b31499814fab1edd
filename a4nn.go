// Package a4nn is the public API of the A4NN workflow — a Go
// reproduction of "Composable Workflow for Accelerating Neural
// Architecture Search Using In Situ Analytics for Protein Classification"
// (Channing et al., ICPP 2023).
//
// A4NN wraps a neural architecture search (NSGA-II over the NSGA-Net
// macro search space) with an in situ parametric fitness-prediction
// engine that terminates each network's training as soon as its
// extrapolated final fitness has stabilised, a resource manager that
// spreads every generation across accelerators with FIFO dynamic
// scheduling, and a lineage tracker that records each network's full
// training lifespan into a local data commons.
//
// Quickstart:
//
//	trainer, _ := a4nn.SurrogateTrainer(a4nn.MediumBeam)
//	cfg := a4nn.DefaultConfig(trainer) // Tables 1 and 2 of the paper
//	result, err := a4nn.Run(cfg)
//
// Set cfg.Engine = nil for the standalone-NAS baseline, cfg.Devices = 4
// to distribute training, and cfg.Store to persist record trails. For
// genuine gradient-descent training on synthetic XFEL diffraction data,
// build a dataset with GenerateXFEL and a trainer with NewRealTrainer.
package a4nn

import (
	"context"

	"a4nn/internal/analyzer"
	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/health"
	"a4nn/internal/jobs"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
	"a4nn/internal/simtrain"
	"a4nn/internal/tsdb"
	"a4nn/internal/xfel"
)

// Core workflow types.
type (
	// Config assembles a full A4NN (or standalone-NAS) run; see
	// DefaultConfig for the paper's evaluation settings.
	Config = core.Config
	// Result is the outcome of a run: the NAS populations, one
	// ModelResult per evaluated network, resource-manager accounting,
	// epoch totals, and measured engine overhead.
	Result = core.Result
	// ModelResult pairs an evaluated genome with its record trail.
	ModelResult = core.ModelResult
	// Trainer builds trainable models from genomes; implement it to plug
	// in a custom training backend.
	Trainer = core.Trainer
	// Trainable is one model mid-training.
	Trainable = core.Trainable
	// EpochMetrics reports one training epoch.
	EpochMetrics = core.EpochMetrics
	// Orchestrator runs Algorithm 1 around a single model; most callers
	// use Run, which orchestrates whole searches.
	Orchestrator = core.Orchestrator
	// RealTrainerConfig configures gradient-descent training of decoded
	// genomes.
	RealTrainerConfig = core.RealTrainerConfig
	// MicroConfig assembles a search over the micro (cell-based) space.
	MicroConfig = core.MicroConfig
	// MicroTrainer builds models from micro genomes.
	MicroTrainer = core.MicroTrainer
)

// Prediction-engine types (paper §2.1).
type (
	// EngineConfig mirrors Table 1 (function family, C_min, e_pred, N, r).
	EngineConfig = predict.Config
	// Engine is the parametric prediction engine.
	Engine = predict.Engine
	// CurveFamily is a parametric learning-curve family; ExpApproach is
	// the paper's F(x) = a − b^(c−x).
	CurveFamily = predict.CurveFamily
	// ExpApproach is the paper's curve family.
	ExpApproach = predict.ExpApproach
	// PowerLaw is an alternative family for ablations.
	PowerLaw = predict.PowerLaw
)

// Search-space and NAS types.
type (
	// Genome encodes one architecture in the NSGA-Net macro space.
	Genome = genome.Genome
	// DecodeConfig shapes decoded networks.
	DecodeConfig = genome.DecodeConfig
	// NASConfig mirrors Table 2 (population, offspring, generations).
	NASConfig = nsga.Config
)

// Dataset and beam types (paper §3.1).
type (
	// BeamIntensity is the XFEL pulse intensity, the paper's noise proxy.
	BeamIntensity = xfel.BeamIntensity
	// SimulatorParams configures the diffraction simulator.
	SimulatorParams = xfel.SimulatorParams
	// Dataset is an in-memory labelled image collection.
	Dataset = dataset.Dataset
	// Store is the local data commons of record trails and snapshots.
	Store = commons.Store
)

// The paper's three beam intensities.
const (
	LowBeam    = xfel.LowBeam
	MediumBeam = xfel.MediumBeam
	HighBeam   = xfel.HighBeam
)

// Device is one simulated accelerator; Orchestrator.TrainModel charges
// each epoch against its throughput.
type Device = sched.Device

// Fault-tolerance types (resource-manager robustness layer).
type (
	// FaultPlan deterministically injects device crashes, transient task
	// errors, and stragglers into a run (Config.Faults).
	FaultPlan = sched.FaultPlan
	// DeviceCrash schedules one explicit device failure in a FaultPlan.
	DeviceCrash = sched.DeviceCrash
)

// Observability types (metrics registry, span tracing, run telemetry,
// event journal).
type (
	// Observer bundles a metrics registry, a span tracer, and an event
	// journal; set Config.Obs (or MicroConfig.Obs) to instrument a run.
	// A nil Observer disables observability at ~one branch per event.
	Observer = obs.Observer
	// Telemetry is a run's aggregate telemetry, folded from the event
	// journal its observer appended to the commons directory, plus the
	// metrics snapshot flushed next to it.
	Telemetry = obs.Telemetry
	// Journal is a run's structured event stream: every emit is appended
	// to events.jsonl (when a file is attached) and fanned out to live
	// subscribers without ever blocking the search.
	Journal = obs.Journal
	// Event is one structured journal record (generation progress, task
	// dispatch/fault, epoch reports, prediction terminations, Pareto
	// front updates, ...); consumers switch on Event.Type.
	Event = obs.Event
)

// In-situ health monitoring (streaming anomaly detection over the event
// journal and metrics registry; see internal/health).
type (
	// HealthEngine evaluates in-situ monitors — training divergence,
	// learning-curve plateau, prediction miscalibration, device-pool
	// degradation, queue saturation, journal backpressure, and a Go
	// runtime sampler — over a run's event stream and turns findings
	// into deduplicated, flap-suppressed alerts. A nil *HealthEngine is
	// the disabled monitor: Observe is one nil check, zero allocations.
	HealthEngine = health.Engine
	// HealthConfig tunes the monitors' thresholds and the alert
	// lifecycle; the zero value of any field keeps its default.
	HealthConfig = health.Config
	// HealthReport is the /healthz payload: aggregate status plus
	// per-monitor detail and the active alerts.
	HealthReport = health.Report
	// Alert is one tracked anomaly over its fire/dedup/resolve
	// lifecycle, as persisted to alerts.jsonl.
	Alert = health.Alert
)

// EventsFile is the journal's file name inside the telemetry directory.
const EventsFile = obs.EventsFile

// AlertsFile is the health monitor's alert log inside the telemetry
// directory (JSON Lines, one line per alert state transition).
const AlertsFile = health.AlertsFile

// ReadEvents loads an events.jsonl journal, skipping a torn final line.
func ReadEvents(path string) ([]Event, error) { return obs.ReadEvents(path) }

// NewObserver returns an observer with a fresh metrics registry, a
// bounded span tracer, and an event journal. Attach Journal().OpenFile
// to persist the event stream as events.jsonl; after the run, FlushTo
// writes metrics.json atomically beside it and syncs the journal, and
// LoadTelemetry reads the directory back.
func NewObserver() *Observer { return obs.NewObserver() }

// EnableLayerProfiler installs the process-wide per-layer training
// profiler: every decoded network's forward/backward wall time and
// FLOPs are accounted per layer kind into the observer's registry
// (a4nn_nn_layer_* series), along with the tensor GEMM kernel totals.
// Disabled (the default) the hooks cost one atomic load per pass and
// zero allocations.
func EnableLayerProfiler(o *Observer) { nn.SetProfiler(nn.NewProfiler(o.Registry())) }

// DisableLayerProfiler uninstalls the per-layer profiler.
func DisableLayerProfiler() { nn.SetProfiler(nil) }

// SyncLayerProfiler copies the tensor kernel totals into the profiler's
// gauges; call before flushing metrics. No-op when profiling is off.
func SyncLayerProfiler() { nn.ActiveProfiler().SyncKernelCounters() }

// LoadTelemetry folds per-generation telemetry from the events.jsonl in
// dir (normally the run's commons directory), with the metrics snapshot
// when one was flushed there.
func LoadTelemetry(dir string) (*Telemetry, error) { return obs.LoadTelemetry(dir) }

// DefaultHealthConfig returns the health monitor's default thresholds.
func DefaultHealthConfig() HealthConfig { return health.DefaultConfig() }

// ParseHealthConfig parses the compact CLI health specification, e.g.
// "divergence-window=5;min-capacity=0.6;gc-pause-ms=20".
func ParseHealthConfig(spec string) (HealthConfig, error) { return health.ParseConfig(spec) }

// NewHealthEngine builds an in-situ health engine over the observer's
// event journal and metrics registry. Call Start to consume the live
// stream (Close to drain and stop), OpenAlertsFile to persist alerts
// next to the journal, and pass it as webui.Run.Health to
// webui.Server.SetRun to serve /healthz and /api/alerts.
func NewHealthEngine(cfg HealthConfig, o *Observer) (*HealthEngine, error) {
	return health.New(cfg, o)
}

// ReadAlerts loads an alerts.jsonl file, folding per-transition lines
// into the latest state of each alert.
func ReadAlerts(path string) ([]Alert, error) { return health.ReadAlerts(path) }

// HistoryDB is a run's on-disk metrics time-series store (see
// internal/tsdb): CRC-framed, delta-and-XOR-compressed blocks, torn-tail
// tolerant on reopen. A nil *HistoryDB ignores appends and answers
// queries empty.
type HistoryDB = tsdb.DB

// SeriesFile is the history store's file name inside the telemetry
// directory.
const SeriesFile = tsdb.SeriesFile

// OpenHistoryRead opens dir's series store read-only, tolerating a
// torn tail from a crashed writer.
func OpenHistoryRead(dir string) (*HistoryDB, error) { return tsdb.OpenRead(dir) }

// Postmortem is one decoded flight-recorder bundle — the black box a
// dying run leaves behind under <dir>/postmortem.
type Postmortem = obs.Postmortem

// FindPostmortems lists the bundle files under dir/postmortem.
func FindPostmortems(dir string) ([]string, error) { return obs.FindBundles(dir) }

// DecodePostmortem reads and CRC-verifies one bundle file; torn or
// corrupted bundles error, never decode as wrong data.
func DecodePostmortem(path string) (*Postmortem, error) { return obs.DecodeBundle(path) }

// ParseFaultPlan parses the compact CLI fault specification, e.g.
// "transient=0.05;crash=1@2;slowdown=0.1;seed=7".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return sched.ParseFaultPlan(spec) }

// Multi-tenant job service (many concurrent searches over one shared
// device fleet; see internal/jobs and cmd/a4nn-serve -jobs).
type (
	// JobConfig is one search submission (the POST /api/jobs body).
	JobConfig = jobs.Config
	// JobManifest is the durable per-job record (job.json) a killed
	// service leaves behind for a4nn-serve -jobs -resume.
	JobManifest = jobs.Manifest
)

// ReadJobManifests scans a jobs root for per-job manifests.
func ReadJobManifests(root string) ([]JobManifest, error) { return jobs.ReadManifests(root) }

// BuildJobSearchConfig assembles the core Config a job submission runs;
// cmd/a4nn builds its search with the same call, which is what makes
// service results byte-comparable to solo runs.
func BuildJobSearchConfig(jc JobConfig) (Config, error) { return jobs.BuildSearchConfig(jc) }

// ChaosPlan is a parsed crash-injection plan (process-level fault
// injection at named durable-state transitions; see internal/chaos and
// DESIGN.md §8); InstallChaosPlan arms it process-wide.
type ChaosPlan = chaos.Plan

// ChaosExitCode is the process exit code of an injected crash (86),
// distinguishing planned kills from real failures in soak harnesses.
const ChaosExitCode = chaos.ExitCode

// ParseChaosPlan parses the compact -chaos specification, e.g.
// "crash=commons.record.pre_rename@3;seed=7" (crash on the 3rd record
// commit) or "err=journal.append.pre_write%0.1" (fail ~10% of journal
// appends). ChaosPoints lists the named crash points.
func ParseChaosPlan(spec string) (*ChaosPlan, error) { return chaos.Parse(spec) }

// InstallChaosPlan arms a crash plan process-wide (nil disarms). With
// no plan installed every crash point is a single atomic load and zero
// allocations.
func InstallChaosPlan(p *ChaosPlan) { chaos.Install(p) }

// ChaosPoints returns the named crash points, sorted.
func ChaosPoints() []string { return chaos.Points() }

// DefaultDevice returns a single accelerator with the default (V100-like)
// effective throughput.
func DefaultDevice() Device { return Device{ID: 0, Throughput: sched.DefaultThroughput} }

// Run executes a search with the given configuration.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunCtx is Run with cancellation: when ctx is canceled, in-flight
// training stops between epochs and the run returns the context error.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) { return core.RunCtx(ctx, cfg) }

// RunMicro executes a search over the micro (cell-based) space — the
// same workflow applied to NSGA-Net's second encoding.
func RunMicro(cfg MicroConfig) (*Result, error) { return core.RunMicro(cfg) }

// NewRealMicroTrainer returns a trainer that decodes micro cells into
// CNNs and trains them by SGD on real data.
func NewRealMicroTrainer(train, val *Dataset, cfg RealTrainerConfig) (MicroTrainer, error) {
	return core.NewRealMicroTrainer(train, val, cfg)
}

// DefaultConfig returns the paper's evaluation setup for a trainer:
// population 10, offspring 10, 10 generations, 25 epochs, the Table 1
// prediction engine, one device.
func DefaultConfig(trainer Trainer) Config { return core.DefaultConfig(trainer) }

// DefaultEngineConfig returns Table 1: F(x)=a−b^(c−x), C_min=3, e_pred=25,
// N=3, r=0.5, fitness bounds [0,100].
func DefaultEngineConfig() EngineConfig { return predict.DefaultConfig() }

// NewEngine builds a prediction engine for standalone use (for example to
// augment a non-NSGA search; see examples/custom_nas).
func NewEngine(cfg EngineConfig) (*Engine, error) { return predict.NewEngine(cfg) }

// SurrogateTrainer returns the calibrated surrogate trainer for a beam
// intensity: learning curves are drawn from the paper's own parametric
// family with beam-dependent noise, so full paper-scale searches run in
// seconds (see internal/simtrain for the calibration).
func SurrogateTrainer(beam BeamIntensity) (Trainer, error) {
	return simtrain.ForBeam(beam)
}

// NewRealTrainer returns a trainer that decodes genomes into CNNs and
// trains them by SGD on real data.
func NewRealTrainer(train, val *Dataset, cfg RealTrainerConfig) (Trainer, error) {
	return core.NewRealTrainer(train, val, cfg)
}

// DefaultDecodeConfig mirrors the laptop-scale networks (32×32 inputs,
// widths 8→16→32); PaperDecodeConfig mirrors the paper-scale ones.
func DefaultDecodeConfig() DecodeConfig { return genome.DefaultDecodeConfig() }

// PaperDecodeConfig returns the paper-scale decode configuration
// (128×128 inputs, widths 16→32→64).
func PaperDecodeConfig() DecodeConfig { return genome.PaperDecodeConfig() }

// DefaultSimulatorParams returns the laptop-scale XFEL simulator
// configuration (32×32 detectors).
func DefaultSimulatorParams() SimulatorParams { return xfel.DefaultSimulatorParams() }

// GenerateXFEL synthesises a balanced two-conformation diffraction
// dataset at the given beam intensity.
func GenerateXFEL(seed int64, count int, beam BeamIntensity, params SimulatorParams) (*Dataset, error) {
	sim, err := xfel.NewSimulator(seed, params)
	if err != nil {
		return nil, err
	}
	pats, err := sim.GenerateBatch(seed+1, count, beam)
	if err != nil {
		return nil, err
	}
	return dataset.FromPatterns(pats)
}

// OpenCommons opens (creating if needed) a data commons directory.
func OpenCommons(dir string) (*Store, error) { return commons.Open(dir) }

// ParetoFrontier returns the Pareto-optimal models of a run (maximal
// accuracy, minimal MFLOPs), sorted by increasing MFLOPs.
func ParetoFrontier(models []*ModelResult) []analyzer.Point {
	return analyzer.ParetoFrontier(models)
}

// RandomGenome draws an architecture uniformly from the macro search
// space (phases × nodesPerPhase), for custom searches.
func RandomGenome(seed int64, phases, nodesPerPhase int) (*Genome, error) {
	return genome.NewRandom(newRand(seed), phases, nodesPerPhase)
}
