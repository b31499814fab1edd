package main

// The names below are the benchmark's contract with BENCHMARK.json at the
// repository root: bench_test.go fails when the two drift apart.

// defaultSeconds is how long one workload's timed region lasts when
// -seconds is not given; it equals run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// metricSpec declares one metric: its unit and which direction is better.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// Workload names, in the order the all-workloads mode runs them.
const (
	wlTrainReal    = "train_real"
	wlTrainWide    = "train_wide"
	wlSearchBare   = "search_bare"
	wlSearchInsitu = "search_insitu"
	wlServeJobs    = "serve_jobs"
)

var workloadNames = []string{wlTrainReal, wlTrainWide, wlSearchBare, wlSearchInsitu, wlServeJobs}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"models_per_s", "models/s", "higher"},
	{"search_p50_s", "s", "lower"},
	{"alloc_mb_per_model", "MB", "lower"},
}

// webRoutes are the read routes serve_jobs exercises, in draw order.
var webRoutes = []string{"jobs_list", "job_get", "fleet", "metrics", "job_metrics", "job_query"}

// perLayer is what the traced run reports, one block per module. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"tensor.gemm_calls", "count", "lower"},
		{"tensor.gemm_gflop", "GFLOP", "lower"},
		{"tensor.gemm_packed_share", "fraction", "higher"},
		{"tensor.gemm_gflops_per_s", "GFLOP/s", "higher"},
		{"tensor.matmul_skinny_gflops", "GFLOP/s", "higher"},
		{"tensor.matmul_packed_gflops", "GFLOP/s", "higher"},
		{"tensor.im2col_gb_per_s", "GB/s", "higher"},

		{"nn.train_epoch_busy_s", "s", "lower"},
		{"nn.train_epoch_p50_ms", "ms", "lower"},
		{"nn.train_epoch_count", "count", "lower"},
		{"nn.phase_fwd_s", "s", "lower"},
		{"nn.phase_bwd_s", "s", "lower"},
		{"nn.pool_s", "s", "lower"},
		{"nn.dense_s", "s", "lower"},
		{"nn.eval_share", "fraction", "lower"},

		{"genome.new_model_busy_s", "s", "lower"},
		{"genome.new_model_p50_us", "us", "lower"},
		{"simtrain.train_epoch_p50_us", "us", "lower"},

		{"predict.busy_s", "s", "lower"},
		{"predict.interactions", "count", "lower"},
		{"predict.mean_us", "us", "lower"},
		{"predict.terminated_frac", "fraction", "higher"},
		{"predict.observe_p50_us", "us", "lower"},
		{"fit.curvefit_p50_us", "us", "lower"},

		{"nsga.gen_gap_p50_ms", "ms", "lower"},
		{"core.self_s", "s", "lower"},
		{"core.generations", "count", "lower"},
		{"core.epochs_per_s", "epochs/s", "higher"},
		{"core.epochs_saved_frac", "fraction", "higher"},
		{"core.best_accuracy_pct", "%", "higher"},

		{"sched.sim_wall_h", "h", "lower"},
		{"sched.idle_frac", "fraction", "lower"},
		{"sched.retries", "count", "lower"},
		{"sched.pool_speedup_2dev", "x", "higher"},
		{"sched.fleet_wait_s", "s", "lower"},
		{"sched.fleet_acquires", "count", "lower"},

		{"commons.record_puts", "count", "lower"},
		{"commons.checkpoint_puts", "count", "lower"},
		{"commons.store_mb", "MB", "lower"},
		{"commons.put_record_p50_us", "us", "lower"},
		{"commons.put_checkpoint_p50_us", "us", "lower"},
		{"commons.get_record_p50_us", "us", "lower"},
		{"commons.replay_s", "s", "lower"},

		{"obs.events_emitted", "count", "lower"},
		{"obs.events_dropped", "count", "lower"},
		{"obs.journal_mb", "MB", "lower"},
		{"obs.emit_p50_us", "us", "lower"},
		{"obs.registry_series", "count", "lower"},
		{"obs.flush_ms", "ms", "lower"},
		{"obs.spans", "count", "lower"},

		{"health.observe_p50_us", "us", "lower"},
		{"health.alerts_fired", "count", "lower"},
		{"health.close_ms", "ms", "lower"},

		{"tsdb.samples", "count", "lower"},
		{"tsdb.file_kb", "KB", "lower"},
		{"tsdb.sample_tick_p50_us", "us", "lower"},
		{"tsdb.query_live_p50_us", "us", "lower"},
		{"tsdb.openread_p50_us", "us", "lower"},

		{"jobs.submit_p50_ms", "ms", "lower"},
		{"jobs.queue_wait_p50_s", "s", "lower"},
		{"jobs.run_p50_s", "s", "lower"},
		{"jobs.turnaround_p50_s", "s", "lower"},
		{"jobs.completed", "count", "higher"},
		{"jobs.failed", "count", "lower"},
	}
	for _, r := range webRoutes {
		m = append(m,
			metricSpec{"webui." + r + "_p50_ms", "ms", "lower"},
			metricSpec{"webui." + r + "_p99_ms", "ms", "lower"},
			metricSpec{"webui." + r + "_count", "count", "higher"})
	}
	return append(m,
		metricSpec{"webui.read_p50_ms", "ms", "lower"},
		metricSpec{"webui.read_p90_ms", "ms", "lower"},
		metricSpec{"webui.read_ptail_ms", "ms", "lower"},
		metricSpec{"webui.read_ptail_pct", "%", "higher"},
		metricSpec{"webui.read_count", "count", "higher"},
		metricSpec{"webui.non2xx", "count", "lower"},

		metricSpec{"xfel.generate_ms_per_pattern", "ms", "lower"},
		metricSpec{"dataset.split_ms", "ms", "lower"},

		metricSpec{"bench.wall_s", "s", "lower"},
		metricSpec{"bench.spans", "count", "lower"},
		metricSpec{"bench.fsync_calls", "count", "lower"},
		metricSpec{"bench.span_cost_frac", "fraction", "lower"},
		metricSpec{"bench.trace_overhead_frac", "fraction", "lower"},
	)
}
